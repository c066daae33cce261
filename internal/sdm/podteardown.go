package sdm

// Batched group-commit teardown, pod tier — the inverse of podbatch.go.
// EvictBatch retires a burst of consumers in three deterministic
// phases, mirroring AdmitBatch's shape; the row tier runs the same
// engine per pod shard (evictShardPlan, its own flat rack wave,
// evictShardMerge):
//
//  1. Partition (serial, evictShardPlan): every request already names
//     its rack; its rack-local attachments and compute release pack
//     into a per-rack ReleaseBatch sub-batch, and its cross-rack
//     attachments queue for the serial pod phase (their circuits ride
//     the pod switch, which no rack shard owns).
//  2. Teardown (parallel): each rack's sub-batch runs through its own
//     Controller.ReleaseBatch on a worker goroutine — shared-nothing
//     rack shards, so the outcome is byte-identical at any worker
//     count, with one deferred index-leaf refresh per touched brick.
//  3. Cross phase (serial, evictShardMerge): cross-rack attachments
//     detach in request order through the one detach body, journaled
//     like the rack teardowns.
//
// Eviction is all-or-nothing: if any teardown definitively fails, the
// journals replay in reverse (rollbackEvict) — segments re-carve at
// their exact offsets, the exact ports re-acquire, circuits rebuild,
// packet riders re-key onto the rebuilt circuits, the walk order
// re-threads without re-stamping spill sequence numbers, and released
// compute re-reserves — leaving brick state, placement indexes, the
// power census and the rebalancer's walk order answering exactly as
// before the batch.

import (
	"fmt"

	"repro/internal/brick"
	"repro/internal/sim"
	"repro/internal/topo"
)

// EvictRequest is one retirement of a VM-shaped consumer in a pod
// batch: the attachments to tear down (rack-local and cross-rack mixed,
// in the caller's order — scale-down paths pass newest-first so packet
// riders precede their hosts) and the compute reservation to return.
type EvictRequest struct {
	// Owner tags the consumer being retired.
	Owner string
	// CPU and Rack name the compute brick whose reservation is released.
	CPU  topo.BrickID
	Rack int
	// Pod names CPU's pod at the row tier; lower tiers ignore it.
	Pod int
	// VCPUs and LocalMem are the compute reservation being returned; 0/0
	// marks a detach-only request.
	VCPUs    int
	LocalMem brick.Bytes
	// Atts are the attachments to detach.
	Atts []*Attachment
}

// EvictResult is one retirement's outcome.
type EvictResult struct {
	// DetachLat is the summed orchestration latency of the request's
	// detaches, each accounted exactly as the per-request path would.
	DetachLat sim.Duration
	// Detached counts attachments torn down.
	Detached int
}

// crossItem queues one cross-rack attachment for the serial pod phase,
// remembering which request it settles into.
type crossItem struct {
	req int
	att *Attachment
}

// evictScratch is EvictBatch's reused partition state. Every buffer is
// either fully overwritten or truncated to zero length at the top of a
// batch, so nothing leaks between calls; the shared atts backing is
// pre-sized to the batch's total attachment count before the partition
// loop, so the per-request sub-slices carved out of it never move.
type evictScratch struct {
	cross   []crossItem
	relReqs []ReleaseRequest
	subReq  []ReleaseRequest
	subOut  []ReleaseResult
	atts    []*Attachment
	counts  []int
	offsets []int
	pos     []int
	fill    []int
	active  []int
	podLog  []detachUndo
	// shardN records how many requests the last evictShardPlan
	// partitioned, so rollbackEvict re-reserves exactly those requests'
	// compute out of this scratch.
	shardN int
}

// EvictBatch retires a burst of consumers pod-wide using at most
// workers goroutines for the per-rack teardown phase (<= 0 means
// GOMAXPROCS). Results are in request order. On error, the whole batch
// rolls back and nothing remains evicted.
//
// The partition buffers live on the scheduler and are reused across
// batches (EvictBatch is serial at the pod tier), so steady churn pays
// one allocation per batch: the caller's result slice.
func (s *PodScheduler) EvictBatch(reqs []EvictRequest, workers int) ([]EvictResult, error) {
	out := make([]EvictResult, len(reqs))
	return out, s.EvictBatchInto(reqs, out, workers)
}

// EvictBatchInto is EvictBatch writing results into a caller-provided
// slice, whose length must equal len(reqs) — the steady-state form
// for burst trains, which otherwise pay one result-slice allocation
// per batch. Prior contents of out are overwritten.
func (s *PodScheduler) EvictBatchInto(reqs []EvictRequest, out []EvictResult, workers int) error {
	if len(out) != len(reqs) {
		return fmt.Errorf("sdm: result slice length %d for %d requests", len(out), len(reqs))
	}
	clear(out)
	if len(reqs) == 0 {
		return nil
	}
	for i := range reqs {
		if r := reqs[i].Rack; r < 0 || r >= len(s.racks) {
			return fmt.Errorf("sdm: batch eviction request %d (%q): no rack %d in the pod", i, reqs[i].Owner, r)
		}
	}
	seqStart := s.attachSeq
	// Clear every journal up front: rollbackEvict replays all of them,
	// and a rack this batch never touches must not replay entries left
	// over from an earlier committed batch.
	for _, r := range s.racks {
		r.undoLog = r.undoLog[:0]
	}

	// Phase 1 — partition; phase 2 — per-rack teardown on worker
	// goroutines; phase 3 — gather and cross-rack teardowns in request
	// order. The first failed request (in request order) aborts the
	// whole batch; every rack has already run, so the rollback sees all
	// worker-committed teardowns in the journals.
	s.evictShardPlan(reqs)
	sc := &s.evict
	active := sc.active[:0]
	for r, n := range sc.counts[:len(s.racks)] {
		if n > 0 {
			active = append(active, r)
		}
	}
	sc.active = active
	s.forEachRack(workers, active, s.evictWave)
	if failed, err := s.evictShardMerge(reqs, out); err != nil {
		return fmt.Errorf("sdm: batch eviction rolled back at request %d (%q): %w", failed, reqs[failed].Owner, s.rollbackEvict(seqStart, err))
	}
	// Epilogue: the batch committed, so every torn-down attachment is
	// dead — drain them into their compute rack's arena in request order.
	for i := range reqs {
		for _, att := range reqs[i].Atts {
			s.racks[reqs[i].Rack].freeAttachment(att)
		}
	}
	return nil
}

// evictShardPlan is the first half of the pod teardown engine: the
// partition, packed into the pod's reused scratch so a rack wave — the
// pod's own, or the row's flat (pod, rack) wave — can run every rack's
// ReleaseBatch on its own worker. The caller has already validated the
// racks and cleared every journal.
func (s *PodScheduler) evictShardPlan(reqs []EvictRequest) {
	sc := &s.evict
	sc.shardN = len(reqs)
	if len(reqs) == 0 {
		return
	}
	total := 0
	for i := range reqs {
		total += len(reqs[i].Atts)
	}
	if cap(sc.atts) < total {
		sc.atts = make([]*Attachment, 0, total)
	}
	if cap(sc.relReqs) < len(reqs) {
		sc.relReqs = make([]ReleaseRequest, len(reqs))
	}
	atts, crossQ := sc.atts[:0], sc.cross[:0]
	relReqs := sc.relReqs[:len(reqs)]
	for i := range reqs {
		req := &reqs[i]
		rr := ReleaseRequest{Owner: req.Owner, CPU: req.CPU, VCPUs: req.VCPUs, LocalMem: req.LocalMem, Rack: req.Rack}
		start := len(atts)
		for _, att := range req.Atts {
			if att.cross != nil {
				crossQ = append(crossQ, crossItem{req: i, att: att})
			} else {
				atts = append(atts, att)
			}
		}
		rr.Atts = atts[start:len(atts):len(atts)]
		relReqs[i] = rr
	}
	sc.atts, sc.cross = atts, crossQ

	if cap(sc.counts) < len(s.racks) {
		sc.counts = make([]int, len(s.racks))
		sc.offsets = make([]int, len(s.racks)+1)
		sc.fill = make([]int, len(s.racks))
		sc.active = make([]int, 0, len(s.racks))
	}
	counts, fill := sc.counts[:len(s.racks)], sc.fill[:len(s.racks)]
	offsets := sc.offsets[:len(s.racks)+1]
	clear(counts)
	for i := range relReqs {
		counts[relReqs[i].Rack]++
	}
	offsets[0] = 0
	for r := range counts {
		offsets[r+1] = offsets[r] + counts[r]
	}
	if cap(sc.subReq) < len(relReqs) {
		sc.subReq = make([]ReleaseRequest, len(relReqs))
		sc.subOut = make([]ReleaseResult, len(relReqs))
		sc.pos = make([]int, len(relReqs))
	}
	subReq := sc.subReq[:len(relReqs)]
	pos := sc.pos[:len(relReqs)]
	copy(fill, offsets[:len(s.racks)])
	for i := range relReqs {
		r := relReqs[i].Rack
		pos[i] = fill[r]
		subReq[fill[r]] = relReqs[i]
		fill[r]++
	}
}

// evictShardMerge is the second half of the engine: gather the rack
// ReleaseBatch results out of the scratch and run the cross-rack phase,
// journaling for rollbackEvict instead of aborting. It returns the
// index of the first failed request and its error, or (-1, nil) on
// success.
func (s *PodScheduler) evictShardMerge(reqs []EvictRequest, out []EvictResult) (int, error) {
	sc := &s.evict
	if len(reqs) == 0 {
		return -1, nil
	}
	relReqs := sc.relReqs[:len(reqs)]
	subOut, pos, crossQ := sc.subOut, sc.pos[:len(reqs)], sc.cross

	podLog := sc.podLog[:0]
	for i := range relReqs {
		if err := subOut[pos[i]].Err; err != nil {
			sc.podLog = podLog
			return i, err
		}
		out[i].DetachLat = subOut[pos[i]].DetachLat
		out[i].Detached = subOut[pos[i]].Detached
	}

	for _, ci := range crossQ {
		lat, err := s.crossSite(ci.att).detach(ci.att, &podLog)
		if err != nil {
			sc.podLog = podLog
			return ci.req, err
		}
		out[ci.req].DetachLat += lat
		out[ci.req].Detached++
	}
	sc.podLog = podLog
	return -1, nil
}

// rollbackEvict replays this pod's journals of the last eviction in
// reverse — the cross phase first (last torn down), then each rack's —
// re-reserves the compute its racks released, and restores the spill
// sequence counter to seq, leaving the pod as if the eviction never
// ran. It returns cause, annotated with any replay failure.
func (s *PodScheduler) rollbackEvict(seq uint64, cause error) error {
	sc := &s.evict
	for i := len(sc.podLog) - 1; i >= 0; i-- {
		if err := sc.podLog[i].undoDetach(); err != nil {
			cause = fmt.Errorf("%w (and rollback of %q failed: %v)", cause, sc.podLog[i].att.Owner, err)
		}
	}
	sc.podLog = sc.podLog[:0]
	for _, r := range s.racks {
		for i := len(r.undoLog) - 1; i >= 0; i-- {
			if err := r.undoLog[i].undoDetach(); err != nil {
				cause = fmt.Errorf("%w (and rollback of %q failed: %v)", cause, r.undoLog[i].att.Owner, err)
			}
		}
		r.undoLog = r.undoLog[:0]
	}
	for i := sc.shardN - 1; i >= 0; i-- {
		res := &sc.subOut[sc.pos[i]]
		if !res.released {
			continue
		}
		rr := &sc.subReq[sc.pos[i]]
		node := s.racks[rr.Rack].compute(rr.CPU)
		if rr.VCPUs > 0 {
			if err := node.Brick.AllocCores(rr.VCPUs); err != nil {
				cause = fmt.Errorf("%w (and rollback of request %d failed: %v)", cause, i, err)
			}
		}
		if rr.LocalMem > 0 {
			if err := node.Brick.AllocLocal(rr.LocalMem); err != nil {
				cause = fmt.Errorf("%w (and rollback of request %d failed: %v)", cause, i, err)
			}
		}
		s.racks[rr.Rack].touchCompute(rr.CPU)
		res.released = false
	}
	sc.shardN = 0
	s.attachSeq = seq
	return cause
}
