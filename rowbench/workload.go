package main

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/brick"
	"repro/internal/core"
	"repro/internal/scaleup"
	"repro/internal/topo"
)

// workload is one named op mix. Every workload runs the same round
// structure — create/destroy burst pairs, then elastic scale ops — so
// every end-to-end metric is measured on every workload; the mix
// decides which layer dominates.
type workload struct {
	name string
	// pods × racks is the row's shape.
	pods, racks int
	// population is the churning VM count the warm fill reaches and
	// each round returns to.
	population int
	// residents are VMs booted before the churning population that are
	// never destroyed; when set, scale-ups pick only from them.
	residents int
	// burst is the VM count of every create and destroy call.
	burst int
	// pipeline is the core.BatchPipeline depth bursts go through; 0
	// drives core.Row directly.
	pipeline int
	// pairs create/destroy bursts and elastic scale ops make one round.
	pairs, elastic int
	// fillLo and fillHi are the pooled-memory band (share of every
	// memory brick's capacity) the elastic ops steer to: below fillLo
	// they scale up, above fillHi they scale down, in between a coin
	// decides. The warm fill scales up to fillLo.
	fillLo, fillHi float64
	// roundsPerSec sizes the op budget: a run executes roundsPerSec ×
	// --seconds rounds, about --seconds of host time on a 2-core
	// x86-64 host. A fixed budget keeps every simulated outcome a pure
	// function of the seed.
	roundsPerSec int
}

// workers is the engine worker count of every workload: the core
// count of the host the benchmark was sized on. Runs where GOMAXPROCS
// is lower are flagged.
const workers = 2

var workloads = []workload{
	// The sustained scenario: 256-VM bursts put the time in the sdm
	// batch engine and scaleup adopt/evict, not in per-call costs.
	{
		name: "row-churn",
		pods: 16, racks: 32, population: 4096, burst: 256, pipeline: 4,
		pairs: 1, elastic: 2, fillLo: 0, fillHi: 1, roundsPerSec: 200,
	},
	// Per-batch fixed costs dominate: fan-out spawn/join, partition
	// set-up, epilogue, facade maps and slices.
	{
		name: "row-trickle",
		pods: 16, racks: 32, population: 4096, burst: 8, pipeline: 0,
		pairs: 8, elastic: 2, fillLo: 0, fillHi: 1, roundsPerSec: 500,
	},
	// Fig. 10 elasticity: per-request scale ops spill across racks and
	// pods and fall back to packet mode. Above ~65% full, pod and row
	// uplinks run out and scale-ups are refused; the band stays below.
	{
		name: "scale-elastic",
		pods: 4, racks: 8, residents: 224, population: 24, burst: 8, pipeline: 0,
		pairs: 1, elastic: 128, fillLo: 0.60, fillHi: 0.65, roundsPerSec: 800,
	},
}

// spansPerRound bounds the spans the replay records per round: per
// create a root, an admit, and an adopt and a bind per VM; per destroy
// a root, a lookup, an evict and an EvictVM per VM; per scale op at
// most three.
func (w workload) spansPerRound() int {
	return w.pairs*(2+2*w.burst+3+w.burst) + 3*w.elastic
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Op kinds, one per program call the client makes.
const (
	opCreate = iota
	opDestroy
	opScaleUp
	opScaleDown
	numOps
)

// facade is the surface the client drives: core.Row (optionally behind
// a BatchPipeline) in untraced runs, the layer-down replay in traced
// ones.
type facade interface {
	create(reqs []core.VMCreate) ([]scaleup.Result, error)
	destroy(ids []string) ([]scaleup.Result, error)
	scaleUp(id string, size brick.Bytes) (scaleup.Result, error)
	scaleDown(id string, size brick.Bytes) (scaleup.Result, error)
	// vmLoc names the pod and rack hosting a live VM.
	vmLoc(id string) (pod, rack int, ok bool)
}

// rowFacade drives core.Row directly.
type rowFacade struct{ row *core.Row }

func (f rowFacade) create(reqs []core.VMCreate) ([]scaleup.Result, error) {
	return f.row.CreateVMs(reqs, workers)
}
func (f rowFacade) destroy(ids []string) ([]scaleup.Result, error) {
	return f.row.DestroyVMs(ids, workers)
}
func (f rowFacade) scaleUp(id string, size brick.Bytes) (scaleup.Result, error) {
	return f.row.ScaleUpVM(id, size)
}
func (f rowFacade) scaleDown(id string, size brick.Bytes) (scaleup.Result, error) {
	return f.row.ScaleDownVM(id, size)
}
func (f rowFacade) vmLoc(id string) (int, int, bool) { return f.row.VMLoc(id) }

// pipeFacade sends bursts through a core.BatchPipeline; scale ops go to
// the row, as they would from an operator.
type pipeFacade struct {
	rowFacade
	pipe *core.BatchPipeline
}

func (f pipeFacade) create(reqs []core.VMCreate) ([]scaleup.Result, error) {
	return f.pipe.CreateVMs(reqs)
}
func (f pipeFacade) destroy(ids []string) ([]scaleup.Result, error) {
	return f.pipe.DestroyVMs(ids)
}

// call is one timed program call of the timed phase.
type call struct {
	kind  uint8
	ok    bool
	vms   int32 // VM-level ops the call carried (burst size, or 1)
	round int32
	ns    int64
}

// vm is the client's view of one live VM.
type vm struct {
	name   string
	remote brick.Bytes // pooled memory held: bundled plus scale-ups
	held   []uint8     // scale-up sizes in GiB, oldest first
	bound  int32       // index in client.bound, -1 while held is empty
}

// client is the single closed-loop client: it owns the op stream, the
// view of which VMs are live, and the record of every call.
type client struct {
	w    workload
	f    facade
	rand *stream

	// vms are the live VMs; the first residents of them never churn.
	vms       []vm
	residents int
	// bound indexes the VMs holding at least one scale-up.
	bound  []int32
	nextID int

	// pooled is the client's count of pooled memory in use; capacity is
	// the row's pooled memory.
	pooled, capacity brick.Bytes

	reqs []core.VMCreate
	ids  []string
	gone []brick.Bytes

	// timed is set for the timed phase, whose calls are recorded.
	timed    bool
	round    int32
	calls    []call
	simDelay time.Duration // summed virtual delay of completed VM-level ops
	simOps   int64
	refused  int64 // scale-ups the row refused
}

func newClient(w workload, f facade, rand *stream, capacity brick.Bytes) *client {
	return &client{w: w, f: f, rand: rand, capacity: capacity}
}

// timeCall runs one program call, recording it when the phase is timed.
func (c *client) timeCall(kind uint8, vms int, fn func() error) error {
	t0 := time.Now()
	err := fn()
	ns := time.Since(t0).Nanoseconds()
	if c.timed {
		c.calls = append(c.calls, call{kind: kind, ok: err == nil, vms: int32(vms), round: c.round, ns: ns})
	}
	return err
}

func (c *client) addDelay(res []scaleup.Result) {
	for i := range res {
		c.simDelay += time.Duration(res[i].Delay())
	}
	c.simOps += int64(len(res))
}

// VM shapes a create burst draws from.
const (
	// shapeMixed is 1–3 vCPUs, 1–3 GiB local memory and 0–1 GiB
	// bundled remote memory.
	shapeMixed = iota
	// shapeResident is shapeMixed at 3 vCPUs: on 4-core compute bricks
	// no two share a brick, so each owns its brick's transceiver ports.
	shapeResident
	// shapeWhole is shapeMixed at 4 vCPUs: it takes a compute brick of
	// its own, so no resident's packet-mode scale-up rides its circuit
	// (a circuit carrying riders cannot be torn down).
	shapeWhole
)

// createBurst boots n new VMs of the given shape.
func (c *client) createBurst(n, shape int) error {
	c.reqs = c.reqs[:0]
	for i := 0; i < n; i++ {
		u := c.rand.next()
		req := core.VMCreate{
			ID:     "vm" + strconv.Itoa(c.nextID),
			VCPUs:  1 + int(u%3),
			Memory: brick.Bytes(1+(u/3)%3) * brick.GiB,
			Remote: brick.Bytes((u/9)%2) * brick.GiB,
		}
		switch shape {
		case shapeResident:
			req.VCPUs = 3
		case shapeWhole:
			req.VCPUs = 4
		}
		c.nextID++
		c.reqs = append(c.reqs, req)
	}
	var res []scaleup.Result
	err := c.timeCall(opCreate, n, func() (err error) {
		res, err = c.f.create(c.reqs)
		return err
	})
	if err != nil {
		return fmt.Errorf("create burst of %d: %w", n, err)
	}
	c.addDelay(res)
	for _, r := range c.reqs {
		c.vms = append(c.vms, vm{name: r.ID, remote: r.Remote, bound: -1})
		c.pooled += r.Remote
	}
	return nil
}

// destroyBurst retires n churning VMs picked at random.
func (c *client) destroyBurst(n int) error {
	c.ids, c.gone = c.ids[:0], c.gone[:0]
	for i := 0; i < n && len(c.vms) > c.residents; i++ {
		v := c.remove(c.residents + int(c.rand.next()%uint64(len(c.vms)-c.residents)))
		c.ids = append(c.ids, v.name)
		c.gone = append(c.gone, v.remote)
	}
	var res []scaleup.Result
	err := c.timeCall(opDestroy, len(c.ids), func() (err error) {
		res, err = c.f.destroy(c.ids)
		return err
	})
	if err != nil {
		return fmt.Errorf("destroy burst of %d: %w", len(c.ids), err)
	}
	c.addDelay(res)
	for _, b := range c.gone {
		c.pooled -= b
	}
	return nil
}

// remove swap-removes vms[i], keeping the bound list in step, and
// returns it.
func (c *client) remove(i int) vm {
	v := c.vms[i]
	if v.bound >= 0 {
		c.unbind(i)
	}
	last := len(c.vms) - 1
	if i != last {
		c.vms[i] = c.vms[last]
		if b := c.vms[i].bound; b >= 0 {
			c.bound[b] = int32(i)
		}
	}
	c.vms = c.vms[:last]
	return v
}

// unbind drops vms[i] from the bound list.
func (c *client) unbind(i int) {
	b := c.vms[i].bound
	last := c.bound[len(c.bound)-1]
	c.bound[b] = last
	c.vms[last].bound = b
	c.bound = c.bound[:len(c.bound)-1]
	c.vms[i].bound = -1
}

// maxHeld caps a VM's scale-ups: with its bundled attachment, a
// resident holds at most its compute brick's eight transceiver ports.
// A scale-up picking a VM at the cap becomes a scale-down.
const maxHeld = 7

// minScale is the smallest scale-up; scale-downs ask for it, so they
// release the VM's newest releasable scale-up (LIFO).
const minScale = 4 * brick.GiB

// targets is how many VMs, from the front of vms, scale-ups pick from:
// the residents when the workload has them, otherwise every live VM.
func (c *client) targets() int {
	if c.residents > 0 {
		return c.residents
	}
	return len(c.vms)
}

// elasticOp is one per-request scale op: a 4–16 GiB scale-up of a
// random target VM, or a scale-down of a random VM holding scale-ups,
// steered by the pooled-memory band. A refused scale-up leaves the row
// as it was; it is counted as failed and the loop goes on. A
// scale-down only gives back what the VM holds, so its error is the
// program's and ends the run.
func (c *client) elasticOp() error {
	coin, pick, size := c.rand.next(), c.rand.next(), c.rand.next()
	fill := float64(c.pooled) / float64(c.capacity)
	up := fill < c.w.fillLo || (fill <= c.w.fillHi && coin&1 == 0)
	if i := int(pick % uint64(c.targets())); (up || len(c.bound) == 0) && len(c.vms[i].held) < maxHeld {
		if c.scaleUp(i, minScale+brick.Bytes(size%13)*brick.GiB) != nil {
			c.refused++
		}
		return nil
	}
	if len(c.bound) > 0 {
		return c.scaleDown(int(c.bound[pick%uint64(len(c.bound))]))
	}
	return nil
}

func (c *client) scaleUp(i int, size brick.Bytes) error {
	v := &c.vms[i]
	var res scaleup.Result
	err := c.timeCall(opScaleUp, 1, func() (err error) {
		res, err = c.f.scaleUp(v.name, size)
		return err
	})
	if err != nil {
		return fmt.Errorf("scale-up of %s by %v: %w", v.name, size, err)
	}
	c.simDelay += time.Duration(res.Delay())
	c.simOps++
	if v.bound < 0 {
		v.bound = int32(len(c.bound))
		c.bound = append(c.bound, int32(i))
	}
	v.held = append(v.held, uint8(res.Size/brick.GiB))
	v.remote += res.Size
	c.pooled += res.Size
	return nil
}

func (c *client) scaleDown(i int) error {
	v := &c.vms[i]
	var res scaleup.Result
	err := c.timeCall(opScaleDown, 1, func() (err error) {
		res, err = c.f.scaleDown(v.name, minScale)
		return err
	})
	if err != nil {
		return fmt.Errorf("scale-down of %s: %w", v.name, err)
	}
	c.simDelay += time.Duration(res.Delay())
	c.simOps++
	// The released DIMM is the newest releasable one of its size.
	gib := uint8(res.Size / brick.GiB)
	for j := len(v.held) - 1; j >= 0; j-- {
		if v.held[j] == gib {
			v.held = append(v.held[:j], v.held[j+1:]...)
			break
		}
	}
	if len(v.held) == 0 {
		c.unbind(i)
	}
	v.remote -= res.Size
	c.pooled -= res.Size
	return nil
}

// warm fills the row to the workload's steady state — residents, then
// the churning population, then scale-ups up to the pooled band — the
// set-up every run starts from.
func (c *client) warm() error {
	for len(c.vms) < c.w.residents {
		if err := c.createBurst(min(c.w.burst, c.w.residents-len(c.vms)), shapeResident); err != nil {
			return err
		}
	}
	c.residents = len(c.vms)
	for len(c.vms) < c.residents+c.w.population {
		if err := c.createBurst(min(c.w.burst, c.residents+c.w.population-len(c.vms)), c.churnShape()); err != nil {
			return err
		}
	}
	for float64(c.pooled)/float64(c.capacity) < c.w.fillLo {
		i := int(c.rand.next() % uint64(c.targets()))
		size := minScale + brick.Bytes(c.rand.next()%13)*brick.GiB
		if len(c.vms[i].held) >= maxHeld {
			continue
		}
		if err := c.scaleUp(i, size); err != nil {
			return err
		}
	}
	return nil
}

// churnShape is the shape of churning VMs: whole bricks beside
// residents, mixed otherwise.
func (c *client) churnShape() int {
	if c.residents > 0 {
		return shapeWhole
	}
	return shapeMixed
}

// runRound executes one round: the burst pairs, then the elastic ops.
func (c *client) runRound() error {
	for p := 0; p < c.w.pairs; p++ {
		if err := c.createBurst(c.w.burst, c.churnShape()); err != nil {
			return err
		}
		if err := c.destroyBurst(c.w.burst); err != nil {
			return err
		}
	}
	for e := 0; e < c.w.elastic; e++ {
		if err := c.elasticOp(); err != nil {
			return err
		}
	}
	return nil
}

// pooledCapacity is the summed capacity of every memory brick.
func pooledCapacity(row *core.Row) brick.Bytes {
	var total brick.Bytes
	forEachMemory(row, func(m *brick.Memory) { total += m.Capacity })
	return total
}

// forEachMemory visits every memory brick of the row.
func forEachMemory(row *core.Row, fn func(m *brick.Memory)) {
	for p := 0; p < row.Pods(); p++ {
		pod := row.Scheduler().Pod(p)
		for r := 0; r < pod.Racks(); r++ {
			ctl := pod.Rack(r)
			for _, b := range row.Topology().Pod(p).Rack(r).BricksOfKind(topo.KindMemory) {
				if m, ok := ctl.Memory(b.ID); ok {
					fn(m)
				}
			}
		}
	}
}

// stream is the seeded op stream (splitmix64). The timed phase's words
// are generated up front by prefetch, so drawing them costs a load.
type stream struct {
	x     uint64
	words []uint64
	i     int
}

func (s *stream) gen() uint64 {
	s.x += 0x9e3779b97f4a7c15
	z := s.x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// prefetch generates the next n words.
func (s *stream) prefetch(n int) {
	s.words = make([]uint64, n)
	for i := range s.words {
		s.words[i] = s.gen()
	}
	s.i = 0
}

func (s *stream) next() uint64 {
	if s.i < len(s.words) {
		s.i++
		return s.words[s.i-1]
	}
	return s.gen()
}
