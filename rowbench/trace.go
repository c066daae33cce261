package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"strconv"
	"time"

	"repro/internal/brick"
	"repro/internal/core"
	"repro/internal/hypervisor"
	"repro/internal/scaleup"
	"repro/internal/sdm"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Span names. The prefix before the dot is the layer the span times.
const (
	spanCreate = iota // one create call, replayed
	spanDestroy
	spanScaleUp
	spanScaleDown
	spanAdmit         // sdm.RowScheduler.AdmitBatchInto
	spanEvict         // sdm.RowScheduler.EvictBatchInto
	spanAttach        // sdm.RowScheduler.AttachRemoteMemory
	spanAdopt         // scaleup.Controller.AdoptVM
	spanBind          // scaleup.Controller.BindAttachment
	spanLookup        // scaleup.Controller.VMHost/VMSpec/BoundAttachments
	spanEvictVM       // scaleup.Controller.EvictVM
	spanScaleVia      // scaleup.Controller.ScaleUpVia
	spanScaleDownCall // scaleup.Controller.ScaleDown
	numSpans
)

var spanNames = [numSpans]string{
	"core.CreateVMs", "core.DestroyVMs", "core.ScaleUpVM", "core.ScaleDownVM",
	"sdm.AdmitBatchInto", "sdm.EvictBatchInto", "sdm.AttachRemoteMemory",
	"scaleup.AdoptVM", "scaleup.BindAttachment", "scaleup.lookup", "scaleup.EvictVM",
	"scaleup.ScaleUpVia", "scaleup.ScaleDown",
}

// spanLayer is each span's layer, for self-time accounting.
var spanLayer = [numSpans]uint8{
	layerCore, layerCore, layerCore, layerCore,
	layerSDM, layerSDM, layerSDM,
	layerScaleup, layerScaleup, layerScaleup, layerScaleup, layerScaleup, layerScaleup,
}

const (
	layerCore = iota
	layerSDM
	layerScaleup
)

// span is one timed call at a layer boundary. Start is nanoseconds
// since the tracer's epoch; parent is the index of the enclosing span,
// -1 for an op's root.
type span struct {
	name   uint8
	parent int32
	op     int32
	dur    int32 // ns
	start  int64
}

// tracer keeps spans in memory; they are written out when the run ends.
// A nil tracer records nothing (the untimed warm fill).
type tracer struct {
	epoch time.Time
	spans []span
	op    int32 // op id of the current root span
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity), op: -1}
}

// root opens the span of a new op.
func (t *tracer) root(name uint8) int32 {
	if t == nil {
		return -1
	}
	t.op++
	return t.begin(name, -1)
}

func (t *tracer) begin(name uint8, parent int32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, op: t.op, start: int64(time.Since(t.epoch))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].dur = int32(int64(time.Since(t.epoch)) - t.spans[i].start)
}

// write dumps the spans as gzip-compressed tab-separated text, one
// span a line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	z, _ := gzip.NewWriterLevel(f, gzip.BestSpeed)
	w := bufio.NewWriter(z)
	fmt.Fprintln(w, "span\tname\top\tparent\tstart_ns\tdur_ns")
	var b []byte
	for i, s := range t.spans {
		b = strconv.AppendInt(b[:0], int64(i), 10)
		b = append(b, '\t')
		b = append(b, spanNames[s.name]...)
		for _, v := range [...]int64{int64(s.op), int64(s.parent), s.start, int64(s.dur)} {
			b = append(b, '\t')
			b = strconv.AppendInt(b, v, 10)
		}
		b = append(b, '\n')
		w.Write(b)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := z.Close(); err != nil {
		return err
	}
	return f.Close()
}

// attachClass counts the attachments the replay saw returned, by where
// their two ends sit.
type attachClass struct {
	total, crossRack, crossPod, packet int64
}

func (a *attachClass) add(att *sdm.Attachment) {
	a.total++
	switch {
	case att.CPUPod != att.MemPod:
		a.crossPod++
	case att.CPURack != att.MemRack:
		a.crossRack++
	}
	if att.Mode == sdm.ModePacket {
		a.packet++
	}
}

// replayFacade replays the op stream one layer down: it calls the
// sdm.RowScheduler batch and attach methods and the rack
// scaleup.Controller methods in the order core.Row calls them, with a
// span around each call. Placement is core.Row's exactly, which the
// placement digest checks.
type replayFacade struct {
	row   *core.Row
	sched *sdm.RowScheduler
	tr    *tracer
	now   sim.Time
	loc   map[string]topo.RowBrickID // VM → pod, rack (Brick unused)
	class attachClass

	areqs []sdm.AdmitRequest
	aout  []sdm.AdmitResult
	ereqs []sdm.EvictRequest
	eout  []sdm.EvictResult
	res   []scaleup.Result
}

func newReplayFacade(row *core.Row) *replayFacade {
	return &replayFacade{row: row, sched: row.Scheduler(), loc: make(map[string]topo.RowBrickID)}
}

func (f *replayFacade) scale(l topo.RowBrickID) *scaleup.Controller {
	s, _ := f.row.ScaleController(l.Pod, l.Rack)
	return s
}

func (f *replayFacade) vmLoc(id string) (int, int, bool) {
	l, ok := f.loc[id]
	return l.Pod, l.Rack, ok
}

func (f *replayFacade) create(reqs []core.VMCreate) ([]scaleup.Result, error) {
	root := f.tr.root(spanCreate)
	defer f.tr.end(root)
	f.areqs = f.areqs[:0]
	for _, r := range reqs {
		f.areqs = append(f.areqs, sdm.AdmitRequest{Owner: r.ID, VCPUs: r.VCPUs, LocalMem: r.Memory, Remote: r.Remote})
	}
	f.aout = grow(f.aout, len(reqs))
	s := f.tr.begin(spanAdmit, root)
	err := f.sched.AdmitBatchInto(f.areqs, f.aout, workers)
	f.tr.end(s)
	if err != nil {
		return nil, err
	}
	f.res = grow(f.res, len(reqs))
	done := f.now
	for i, r := range reqs {
		a := &f.aout[i]
		l := topo.RowBrickID{Pod: a.Pod, Rack: a.Rack}
		scale := f.scale(l)
		id := hypervisor.VMID(r.ID)
		s := f.tr.begin(spanAdopt, root)
		res, err := scale.AdoptVM(f.now, id, hypervisor.VMSpec{VCPUs: r.VCPUs, Memory: r.Memory}, a.CPU, a.ComputeLat)
		f.tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("replay boot of %q: %w", r.ID, err)
		}
		if a.Att != nil {
			f.class.add(a.Att)
			s := f.tr.begin(spanBind, root)
			up, err := scale.BindAttachment(res.Done, id, a.Att, a.AttachLat)
			f.tr.end(s)
			if err != nil {
				return nil, fmt.Errorf("replay scale-up of %q: %w", r.ID, err)
			}
			res.Done = max(res.Done, up.Done)
			res.Orchestration += up.Orchestration
			res.Baremetal += up.Baremetal
			res.Virtual += up.Virtual
			res.Size += up.Size
		}
		f.loc[r.ID] = l
		f.res[i] = res
		done = max(done, res.Done)
	}
	f.now = done
	return f.res, nil
}

func (f *replayFacade) destroy(ids []string) ([]scaleup.Result, error) {
	root := f.tr.root(spanDestroy)
	defer f.tr.end(root)
	f.ereqs = f.ereqs[:0]
	s := f.tr.begin(spanLookup, root)
	for _, id := range ids {
		l, ok := f.loc[id]
		if !ok {
			f.tr.end(s)
			return nil, fmt.Errorf("replay: no VM %q", id)
		}
		scale := f.scale(l)
		host, _ := scale.VMHost(hypervisor.VMID(id))
		spec, _ := scale.VMSpec(hypervisor.VMID(id))
		atts := scale.BoundAttachments(hypervisor.VMID(id))
		for a, b := 0, len(atts)-1; a < b; a, b = a+1, b-1 {
			atts[a], atts[b] = atts[b], atts[a]
		}
		f.ereqs = append(f.ereqs, sdm.EvictRequest{
			Owner: id, CPU: host, Rack: l.Rack, Pod: l.Pod,
			VCPUs: spec.VCPUs, LocalMem: spec.Memory, Atts: atts,
		})
	}
	f.tr.end(s)
	f.eout = grow(f.eout, len(ids))
	s = f.tr.begin(spanEvict, root)
	err := f.sched.EvictBatchInto(f.ereqs, f.eout, workers)
	f.tr.end(s)
	if err != nil {
		return nil, err
	}
	f.res = grow(f.res, len(ids))
	done := f.now
	for i, id := range ids {
		l := f.loc[id]
		s := f.tr.begin(spanEvictVM, root)
		res, err := f.scale(l).EvictVM(f.now, hypervisor.VMID(id), f.eout[i].DetachLat)
		f.tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("replay teardown of %q: %w", id, err)
		}
		delete(f.loc, id)
		f.res[i] = res
		done = max(done, res.Done)
	}
	f.now = done
	return f.res, nil
}

func (f *replayFacade) scaleUp(id string, size brick.Bytes) (scaleup.Result, error) {
	l, ok := f.loc[id]
	if !ok {
		return scaleup.Result{}, fmt.Errorf("replay: no VM %q", id)
	}
	root := f.tr.root(spanScaleUp)
	defer f.tr.end(root)
	s := f.tr.begin(spanScaleVia, root)
	res, err := f.scale(l).ScaleUpVia(f.now, hypervisor.VMID(id), size,
		func(owner string, cpu topo.BrickID, size brick.Bytes) (*sdm.Attachment, sim.Duration, error) {
			a := f.tr.begin(spanAttach, s)
			att, lat, err := f.sched.AttachRemoteMemory(owner, topo.RowBrickID{Pod: l.Pod, Rack: l.Rack, Brick: cpu}, size)
			f.tr.end(a)
			if err == nil {
				f.class.add(att)
			}
			return att, lat, err
		})
	f.tr.end(s)
	if err != nil {
		return scaleup.Result{}, err
	}
	f.now = res.Done
	return res, nil
}

func (f *replayFacade) scaleDown(id string, size brick.Bytes) (scaleup.Result, error) {
	l, ok := f.loc[id]
	if !ok {
		return scaleup.Result{}, fmt.Errorf("replay: no VM %q", id)
	}
	root := f.tr.root(spanScaleDown)
	defer f.tr.end(root)
	s := f.tr.begin(spanScaleDownCall, root)
	res, err := f.scale(l).ScaleDown(f.now, hypervisor.VMID(id), size)
	f.tr.end(s)
	if err != nil {
		return scaleup.Result{}, err
	}
	f.now = res.Done
	return res, nil
}

// grow returns s resized to n, reusing its backing array.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// opLayers is one replayed op's host time in the layers below core:
// sdm spans, and scaleup self time (scaleup spans minus their sdm
// children).
type opLayers struct {
	sdm, scaleup int64
}

// layerTimes folds the spans into per-op layer times, indexed by op id.
func layerTimes(spans []span, ops int) []opLayers {
	out := make([]opLayers, ops)
	for _, s := range spans {
		d := int64(s.dur)
		o := &out[s.op]
		switch spanLayer[s.name] {
		case layerSDM:
			o.sdm += d
			if s.parent >= 0 && spanLayer[spans[s.parent].name] == layerScaleup {
				o.scaleup -= d
			}
		case layerScaleup:
			o.scaleup += d
		}
	}
	return out
}
