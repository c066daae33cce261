// Command rowbench is the repository's end-to-end benchmark. One
// closed-loop client goroutine drives a row-scale dReDBox through
// core.Row — VM bursts created and destroyed, VMs grown and shrunk
// with remote memory — and reports host-time latency and throughput,
// set-up time, heap and the modelled (virtual-time) delay. A traced
// run replays the same op stream one layer down and reports where the
// time goes: core, sdm, scaleup, optical, brick and the Go runtime.
// See README.md for the workloads and every metric.
//
// Usage:
//
//	rowbench --workload row-churn --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
	"unsafe"

	"repro/internal/brick"
	"repro/internal/core"
)

// setupReps is how many times a run builds and warms its row; setup_s
// is the median.
const setupReps = 21

// segments splits the timed phase by round for the throughput
// medians.
const segments = 10

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rowbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Uint64("seed", 1, "op stream seed")
	seconds := fs.Int("seconds", 10, "op budget, in seconds of host time on the reference host")
	trace := fs.Int("trace", 0, "1 runs the traced replay and reports per-layer metrics")
	spans := fs.String("spans", "", "file the traced replay writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintf(stderr, "rowbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	host := hostShape(*seed)
	hj, _ := json.Marshal(map[string]any{"host": host})
	fmt.Fprintln(stdout, string(hj))
	if host.Flagged {
		fmt.Fprintf(stderr, "rowbench: GOMAXPROCS %d is below the %d engine workers; multi-core numbers do not count on this host\n", host.GOMAXPROCS, workers)
	}
	rounds := w.roundsPerSec * *seconds
	var res result
	var err error
	if *trace == 1 {
		// The traced run times three phases; a third of the budget each
		// keeps it about as long as an untraced run.
		res, err = traced(w, *seed, max(rounds/3, 1), *spans)
	} else {
		res, err = untraced(w, *seed, rounds)
	}
	if err != nil {
		fmt.Fprintf(stderr, "rowbench: %s: %v\n", w.name, err)
		out, _ := json.Marshal(result{Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metric{}})
		fmt.Fprintln(stdout, string(out))
		return 1
	}
	res.Correct = true
	out, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(out))
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// env is one built and warmed row with its client.
type env struct {
	row    *core.Row
	f      facade
	c      *client
	want   pristine
	wallNs int64 // host time spent in timed rounds
}

// build assembles the workload's row and warms it to steady state; the
// replay flag selects the layer-down facade of the traced run.
func build(w workload, seed uint64, replay bool) (*env, error) {
	row, err := core.NewRow(rowConfig(w))
	if err != nil {
		return nil, err
	}
	e := &env{row: row, want: snapshot(row)}
	switch {
	case replay:
		e.f = newReplayFacade(row)
	case w.pipeline > 0:
		pipe, err := core.NewBatchPipeline(row, w.pipeline, workers)
		if err != nil {
			return nil, err
		}
		e.f = pipeFacade{rowFacade{row}, pipe}
	default:
		e.f = rowFacade{row}
	}
	e.c = newClient(w, e.f, &stream{x: seed}, pooledCapacity(row))
	if err := e.c.warm(); err != nil {
		return nil, fmt.Errorf("warm fill: %w", err)
	}
	return e, nil
}

// rowConfig is the default row of the workload's shape, with the pod
// and row switches grown to fit every rack's and pod's uplinks.
func rowConfig(w workload) core.RowConfig {
	cfg := core.DefaultRowConfig(w.pods, w.racks)
	cfg.Fabric.Switch.Ports = max(cfg.Fabric.Switch.Ports, w.racks*cfg.Fabric.UplinksPerRack)
	cfg.Row.Switch.Ports = max(cfg.Row.Switch.Ports, w.pods*cfg.Row.UplinksPerPod)
	return cfg
}

// phase is what one timed phase measured and checked.
type phase struct {
	calls    []call
	wallNs   int64
	simDelay time.Duration
	simOps   int64
	refused  int64
	digest   uint64
	rt0, rt1 runtimeSample
	heapMB   float64
}

func (p *phase) attempted() int64 {
	var n int64
	for _, c := range p.calls {
		n += int64(c.vms)
	}
	return n
}

// start readies the timed phase: the op stream for rounds rounds is
// generated and the call record sized, so the rounds draw and record
// without allocating.
func (e *env) start(rounds int) {
	c, w := e.c, e.c.w
	c.rand.prefetch(rounds * (w.pairs*2*w.burst + 3*w.elastic))
	c.calls = make([]call, 0, rounds*(2*w.pairs+w.elastic))
	c.simDelay, c.simOps, c.refused = 0, 0, 0
	c.timed = true
}

// step runs round r of the timed phase.
func (e *env) step(r int) error {
	t0 := time.Now()
	e.c.round = int32(r)
	err := e.c.runRound()
	e.wallNs += time.Since(t0).Nanoseconds()
	return err
}

// finish ends the timed phase and runs the output checks: the
// placement digest, live heap, and a full drain back to the pristine
// row with the pod invariants checked on the way.
func (e *env) finish() (phase, error) {
	c := e.c
	c.timed = false
	if rf, ok := e.f.(*replayFacade); ok {
		rf.tr = nil // the checks below are not part of the trace
	}
	fmt.Fprintf(os.Stderr, "rowbench: %s: %d calls in %.2fs host time; %d scale ops refused; %d VMs live\n",
		c.w.name, len(c.calls), float64(e.wallNs)/1e9, c.refused, len(c.vms))
	p := phase{calls: c.calls, wallNs: e.wallNs, simDelay: c.simDelay, simOps: c.simOps, refused: c.refused}
	var err error
	if p.digest, err = digest(e.row, e.f, c.vms, p.calls, p.simDelay); err != nil {
		return p, err
	}
	// Neither the op stream nor the call record is the program's heap:
	// the stream is dropped and the record's array, still needed for
	// the metrics, is subtracted.
	c.rand.words = nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	record := uint64(cap(p.calls)) * uint64(unsafe.Sizeof(call{}))
	p.heapMB = float64(ms.HeapAlloc-min(record, ms.HeapAlloc)) / 1e6
	return p, e.drain()
}

// alone runs a timed phase of rounds rounds with nothing else in the
// process, reading the runtime counters around it.
func (e *env) alone(rounds int) (phase, error) {
	e.start(rounds)
	runtime.GC()
	rt0 := readRuntime()
	for r := 0; r < rounds; r++ {
		if err := e.step(r); err != nil {
			return phase{calls: e.c.calls}, err
		}
	}
	rt1 := readRuntime()
	p, err := e.finish()
	p.rt0, p.rt1 = rt0, rt1
	return p, err
}

// untraced is the end-to-end run: set up setupReps times, then one
// timed phase on the last row.
func untraced(w workload, seed uint64, rounds int) (result, error) {
	setups := make([]float64, setupReps)
	var e *env
	for i := range setups {
		e = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if e, err = build(w, seed, false); err != nil {
			return result{}, err
		}
		setups[i] = time.Since(t0).Seconds()
	}
	p, err := e.alone(rounds)
	res := result{Attempted: p.attempted(), Failed: p.refused}
	if err != nil {
		return res, err
	}
	res.Metrics, err = endToEnd(p, median(setups))
	return res, err
}

// endToEnd computes the user-visible metrics of one timed phase.
func endToEnd(p phase, setupS float64) (map[string]metric, error) {
	m := map[string]metric{
		"setup_s":             {setupS, "s"},
		"vm_lifecycles_per_s": {segmentRate(p.calls, 1<<opCreate|1<<opDestroy, 1<<opDestroy), "1/s"},
		"scale_ops_per_s":     {segmentRate(p.calls, 1<<opScaleUp|1<<opScaleDown, 1<<opScaleUp|1<<opScaleDown), "1/s"},
		"live_heap_mb":        {p.heapMB, "MB"},
		"sim_delay_ms":        {float64(p.simDelay) / float64(p.simOps) / 1e6, "ms"},
	}
	for kind, name := range [numOps]string{"admit", "evict", "scaleup", "scaledown"} {
		var us []float64
		for _, c := range p.calls {
			if int(c.kind) == kind && c.ok {
				us = append(us, float64(c.ns)/1e3)
			}
		}
		p50, err := windowed(us, 0.50)
		if err != nil {
			return nil, fmt.Errorf("%s latency: %w", name, err)
		}
		p90, err := windowed(us, 0.90)
		if err != nil {
			return nil, fmt.Errorf("%s latency: %w", name, err)
		}
		m[name+"_p50_us"] = metric{p50, "us"}
		m[name+"_p90_us"] = metric{p90, "us"}
	}
	return m, nil
}

// segmentRate is the median, over the timed phase's round segments,
// of completed VM-level ops of the kinds in done per host second spent
// in calls of the kinds in spent (both bit masks over op kinds).
func segmentRate(calls []call, spent, done uint8) float64 {
	last := calls[len(calls)-1].round + 1
	var ops, ns [segments]float64
	for _, c := range calls {
		bit := uint8(1) << c.kind
		if spent&bit == 0 {
			continue
		}
		s := int(c.round) * segments / int(last)
		ns[s] += float64(c.ns)
		if c.ok && done&bit != 0 {
			ops[s] += float64(c.vms)
		}
	}
	rates := make([]float64, 0, segments)
	for s := range ns {
		if ns[s] > 0 {
			rates = append(rates, ops[s]/ns[s]*1e9)
		}
	}
	return median(rates)
}

// traced is the per-layer run. A first timed phase runs alone, for the
// runtime and client shares. Then the untraced facade and the
// layer-down replay run the same op stream in lockstep, round by
// round with the order alternating, so host noise hits both sides of
// every op alike: core self time and tracing overhead are differences
// between them, and their placement digests must agree.
func traced(w workload, seed uint64, rounds int, spansPath string) (result, error) {
	e, err := build(w, seed, false)
	if err != nil {
		return result{}, err
	}
	solo, err := e.alone(rounds)
	res := result{Attempted: solo.attempted(), Failed: solo.refused}
	if err != nil {
		return res, err
	}
	e = nil
	runtime.GC()

	if e, err = build(w, seed, false); err != nil {
		return res, err
	}
	r, err := build(w, seed, true)
	if err != nil {
		return res, fmt.Errorf("replay: %w", err)
	}
	rf := r.f.(*replayFacade)
	tracer := newTracer(rounds * w.spansPerRound())
	rf.tr = tracer
	smp := &sampler{row: r.row}
	req0, fail0 := tierStats(r.row)
	e.start(rounds)
	r.start(rounds)
	for i := 0; i < rounds; i++ {
		first, second := e, r
		if i%2 == 1 {
			first, second = r, e
		}
		if err := first.step(i); err != nil {
			return res, err
		}
		if err := second.step(i); err != nil {
			return res, err
		}
		smp.sample()
	}
	req1, fail1 := tierStats(r.row)
	un, err := e.finish()
	if err != nil {
		return res, err
	}
	tr, err := r.finish()
	if err != nil {
		return res, fmt.Errorf("replay: %w", err)
	}
	if tr.digest != un.digest || un.digest != solo.digest {
		return res, fmt.Errorf("placement digests differ: alone %016x, lockstep %016x, replay %016x", solo.digest, un.digest, tr.digest)
	}
	if spansPath != "" {
		if err := tracer.write(spansPath); err != nil {
			return res, fmt.Errorf("writing spans: %w", err)
		}
	}
	res.Metrics = perLayer(solo, un, tr, tracer.spans, rf.class, smp, float64(fail1-fail0)/float64(max(req1-req0, 1)))
	return res, nil
}

// perLayer computes the traced run's metrics. Layer times come from
// the replay's spans; core self time is the lockstep untraced call
// time minus the sdm and scaleup time of the same op; runtime and
// client shares describe the phase that ran alone.
func perLayer(solo, un, tr phase, spans []span, cls attachClass, smp *sampler, refused float64) map[string]metric {
	lt := layerTimes(spans, len(tr.calls))

	var coreSelf [numOps][]float64
	var unNs, trNs, soloNs float64
	for k, c := range un.calls {
		coreSelf[c.kind] = append(coreSelf[c.kind], float64(c.ns-lt[k].sdm-lt[k].scaleup)/1e3)
		unNs += float64(c.ns)
		trNs += float64(tr.calls[k].ns)
	}
	for _, c := range solo.calls {
		soloNs += float64(c.ns)
	}

	// Span time summed by name, and per-call durations of the spans
	// reported as medians. ScaleUpVia's self time excludes its attach
	// callback, the span begun right after it.
	var sums [numSpans]float64
	var calls [numSpans][]float64
	for i, s := range spans {
		d := float64(s.dur)
		sums[s.name] += d
		switch s.name {
		case spanAdmit, spanEvict, spanAttach, spanBind, spanScaleDownCall:
			calls[s.name] = append(calls[s.name], d)
		case spanScaleVia:
			if i+1 < len(spans) && spans[i+1].parent == int32(i) {
				d -= float64(spans[i+1].dur)
			}
			calls[s.name] = append(calls[s.name], d)
		}
	}
	var vms [numOps]float64
	for _, c := range tr.calls {
		if c.ok {
			vms[c.kind] += float64(c.vms)
		}
	}
	us := func(name uint8) float64 { return median(calls[name]) / 1e3 }
	perVM := func(name uint8, kind int) float64 { return sums[name] / max(vms[kind], 1) / 1e3 }
	total := float64(max(cls.total, 1))
	ops := float64(max(solo.attempted(), 1))
	rt0, rt1 := solo.rt0, solo.rt1

	return map[string]metric{
		"core.create_self_us":              {median(coreSelf[opCreate]), "us"},
		"core.destroy_self_us":             {median(coreSelf[opDestroy]), "us"},
		"sdm.admit_ns_per_vm":              {sums[spanAdmit] / max(vms[opCreate], 1), "ns"},
		"sdm.evict_ns_per_vm":              {sums[spanEvict] / max(vms[opDestroy], 1), "ns"},
		"sdm.admit_call_us":                {us(spanAdmit), "us"},
		"sdm.evict_call_us":                {us(spanEvict), "us"},
		"sdm.attach_us":                    {us(spanAttach), "us"},
		"sdm.refused_frac":                 {refused, "frac"},
		"sdm.cross_rack_frac":              {float64(cls.crossRack) / total, "frac"},
		"sdm.cross_pod_frac":               {float64(cls.crossPod) / total, "frac"},
		"sdm.packet_frac":                  {float64(cls.packet) / total, "frac"},
		"scaleup.adopt_us_per_vm":          {perVM(spanAdopt, opCreate), "us"},
		"scaleup.bind_us":                  {us(spanBind), "us"},
		"scaleup.lookup_us_per_vm":         {perVM(spanLookup, opDestroy), "us"},
		"scaleup.evict_us_per_vm":          {perVM(spanEvictVM, opDestroy), "us"},
		"scaleup.scaleup_self_us":          {us(spanScaleVia), "us"},
		"scaleup.scaledown_us":             {us(spanScaleDownCall), "us"},
		"optical.live_circuits_mean":       {smp.mean(smp.live), "count"},
		"optical.cross_rack_circuits_mean": {smp.mean(smp.crossRack), "count"},
		"optical.cross_pod_circuits_mean":  {smp.mean(smp.crossPod), "count"},
		"brick.frag_mean":                  {smp.mean(smp.frag), "frac"},
		"runtime.gc_cpu_frac":              {(rt1.gcCPU - rt0.gcCPU) / max(rt1.totalCPU-rt0.totalCPU, 1e-9), "frac"},
		"runtime.alloc_bytes_per_op":       {float64(rt1.allocBytes-rt0.allocBytes) / ops, "B/op"},
		"runtime.allocs_per_op":            {float64(rt1.allocObjects-rt0.allocObjects) / ops, "allocs/op"},
		"runtime.gc_cycles":                {float64(rt1.gcCycles - rt0.gcCycles), "count"},
		"client.gen_frac":                  {1 - soloNs/float64(solo.wallNs), "frac"},
		"trace_overhead_frac":              {(trNs - unNs) / unNs, "frac"},
	}
}

// sampler reads the optical and brick counts between rounds of the
// traced run.
type sampler struct {
	row                             *core.Row
	n                               float64
	live, crossRack, crossPod, frag float64
}

func (s *sampler) sample() {
	live, crossRack, crossPod := circuits(s.row)
	s.live += float64(live)
	s.crossRack += float64(crossRack)
	s.crossPod += float64(crossPod)
	var frag float64
	var used int
	forEachMemory(s.row, func(m *brick.Memory) {
		if free := m.Free(); free > 0 && len(m.Segments()) > 0 {
			frag += 1 - float64(m.LargestGap())/float64(free)
			used++
		}
	})
	if used > 0 {
		s.frag += frag / float64(used)
	}
	s.n++
}

func (s *sampler) mean(total float64) float64 { return total / max(s.n, 1) }

// tierStats sums the request and failure counters of every tier: the
// row scheduler, each pod scheduler and each rack controller.
func tierStats(row *core.Row) (requests, failures uint64) {
	sched := row.Scheduler()
	requests, failures, _ = sched.Stats()
	for p := 0; p < sched.Pods(); p++ {
		pod := sched.Pod(p)
		req, fail, _ := pod.Stats()
		requests, failures = requests+req, failures+fail
		for r := 0; r < pod.Racks(); r++ {
			req, fail := pod.Rack(r).Stats()
			requests, failures = requests+req, failures+fail
		}
	}
	return requests, failures
}
