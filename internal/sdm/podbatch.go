package sdm

// Batched group-commit admission, pod tier. AdmitBatch serves a whole
// scale-up burst in three deterministic phases:
//
//  1. Partition (serial, admitShardPlan — the same partition each pod
//     runs for its shard of a row batch): every request is assigned a
//     rack by the same O(1) index-root aggregates the per-request rack
//     choice reads — free-core rank sums and feasibility maxima —
//     adjusted by the cores already planned onto each rack, so a burst
//     spreads (or packs) the way the policy would have placed it one by
//     one.
//  2. Plan (parallel): each rack's sub-batch runs through its own
//     Controller.PlaceBatch on a worker goroutine. Rack shards share
//     nothing on this path — every controller owns its bricks, fabric
//     and indexes — so there are no locks, and each shard's outcome is
//     a pure function of its pre-batch state and its sub-batch. The
//     result is byte-identical at any worker count.
//  3. Merge (serial): leftovers — requests whose rack could not serve
//     the remote part locally, or whose planned rack turned out full —
//     resolve in request order through the sequential spill machinery
//     (cross-rack circuits through the pod switch, then the pod-tier
//     packet fallback), exactly as the per-request path would; counters
//     fold once per batch, and only the leftover list is walked.
//
// Admission is all-or-nothing: if any request definitively fails, every
// committed admission is torn down in reverse order and the spill
// sequence counter restored, leaving brick state, placement indexes and
// the rebalancer's crossOrder answering exactly as before the batch.

import (
	"fmt"

	"repro/internal/brick"
	"repro/internal/topo"
)

// AdmitBatch admits a burst of requests pod-wide using at most workers
// goroutines for the per-rack planning phase (<= 0 means GOMAXPROCS).
// Results are in request order. On error, nothing remains admitted.
func (s *PodScheduler) AdmitBatch(reqs []AdmitRequest, workers int) ([]AdmitResult, error) {
	out := make([]AdmitResult, len(reqs))
	return out, s.AdmitBatchInto(reqs, out, workers)
}

// AdmitBatchInto is AdmitBatch writing results into a caller-provided
// slice, whose length must equal len(reqs) — the steady-state form
// for burst trains, which otherwise pay one result-slice allocation
// per batch. Prior contents of out are overwritten.
func (s *PodScheduler) AdmitBatchInto(reqs []AdmitRequest, out []AdmitResult, workers int) error {
	if len(out) != len(reqs) {
		return fmt.Errorf("sdm: result slice length %d for %d requests", len(out), len(reqs))
	}
	clear(out)
	if len(reqs) == 0 {
		return nil
	}
	seqStart := s.attachSeq
	for _, r := range s.racks {
		r.startBootLog()
	}
	defer func() {
		for _, r := range s.racks {
			r.stopBootLog()
		}
	}()

	// Phase 1 — validate in request order (malformed requests surface,
	// and count, exactly as they would mid-partition), then partition by
	// the O(1) rack-choice aggregates into the pod's reused scratch.
	for i := range reqs {
		req := &reqs[i]
		switch {
		case req.VCPUs < 0:
			return fmt.Errorf("sdm: batch request %d (%q): reserve of %d vcpus", i, req.Owner, req.VCPUs)
		case req.VCPUs == 0:
			if req.Remote == 0 {
				return fmt.Errorf("sdm: batch request %d (%q): no vCPUs and no remote memory", i, req.Owner)
			}
			if req.Rack < 0 || req.Rack >= len(s.racks) {
				s.requests++
				s.failures++
				return fmt.Errorf("sdm: batch request %d (%q): no rack %d in the pod", i, req.Owner, req.Rack)
			}
		}
	}
	s.admitShardPlan(reqs)
	sc := &s.admit
	rackOf, pos, subOut := sc.rackOf[:len(reqs)], sc.pos[:len(reqs)], sc.subOut

	// Phase 2 — per-rack plan *and commit* on worker goroutines.
	active := sc.active[:0]
	for r, n := range sc.counts[:len(s.racks)] {
		if n > 0 {
			active = append(active, r)
		}
	}
	sc.active = active
	s.forEachRack(workers, active, s.admitWave)

	// Phase 3a — gather every dispatched result before any merging, so
	// a mid-merge abort sees all worker-committed state in out. The
	// epilogue's request counters fold here, once per batch, and the
	// merge below walks only the leftover list instead of re-scanning
	// every settled request.
	retry := sc.retry[:len(reqs)]
	clear(retry)
	leftover := sc.leftover[:0]
	var batchReqs uint64
	for i := range reqs {
		if pos[i] < 0 {
			retry[i] = true
			leftover = append(leftover, i)
			continue
		}
		out[i] = subOut[pos[i]]
		out[i].Rack = rackOf[i]
		if out[i].Att != nil {
			// Stamp the pod coordinates now: a mid-merge abort routes
			// teardown through them.
			out[i].Att.CPURack, out[i].Att.MemRack = out[i].Rack, out[i].Rack
		}
		if out[i].Err != nil {
			// The planned rack could not serve the request after all
			// (partition works off pre-batch aggregates); a failed
			// rack-level request committed nothing, so re-place it
			// through the sequential pod path against committed state.
			out[i] = AdmitResult{}
			retry[i] = true
			leftover = append(leftover, i)
			continue
		}
		if reqs[i].VCPUs > 0 {
			batchReqs++
		}
		if reqs[i].Remote > 0 {
			batchReqs++
		}
		if out[i].needSpill {
			leftover = append(leftover, i)
		}
	}
	s.requests += batchReqs
	sc.leftover = leftover

	// Phase 3b — merge leftovers in request order.
	for _, i := range leftover {
		req := &reqs[i]
		if retry[i] {
			if req.VCPUs > 0 {
				id, lat, err := s.ReserveCompute(req.Owner, req.VCPUs, req.LocalMem)
				if err != nil {
					return s.abortBatch(reqs, out, seqStart, i, err)
				}
				out[i].CPU, out[i].Rack = id.Brick, id.Rack
				out[i].ComputeLat, out[i].computeDone = lat, true
			} else {
				out[i].CPU, out[i].Rack = req.CPU, req.Rack
			}
			if req.Remote > 0 {
				att, lat, err := s.AttachRemoteMemory(req.Owner, topo.PodBrickID{Rack: out[i].Rack, Brick: out[i].CPU}, req.Remote)
				if err != nil {
					return s.abortBatch(reqs, out, seqStart, i, err)
				}
				out[i].Att, out[i].AttachLat = att, lat
			}
			continue
		}
		// Every non-retry leftover needs the cross-rack spill.
		res := &out[i]
		att, lat, err := s.attachCross(req.Owner, topo.PodBrickID{Rack: res.Rack, Brick: res.CPU}, req.Remote)
		if err != nil {
			localErr := res.localErr
			if localErr == nil {
				localErr = fmt.Errorf("sdm: no memory brick with %v contiguous free and a spare port", req.Remote)
			}
			s.failures++
			err = fmt.Errorf("sdm: pod attach for %q failed rack-locally (%v) and cross-rack: %w", req.Owner, localErr, err)
			return s.abortBatch(reqs, out, seqStart, i, err)
		}
		s.spills++
		res.Att, res.AttachLat = att, lat
		res.needSpill, res.localErr = false, nil
	}
	return nil
}

// partitionStep runs one request through the serial partition: the
// full per-request rack choice while nothing is planned yet, the
// planned-adjusted arithmetic choice afterwards. It consumes from
// plannedCores on success and returns the chosen rack (-1 for a
// leftover).
func (s *PodScheduler) partitionStep(req *AdmitRequest, plannedCores []int, plannedAny *bool) int {
	if !*plannedAny {
		rack, ok := s.pickComputeRackExcept(req.VCPUs, req.LocalMem, -1)
		if !ok {
			return -1
		}
		plannedCores[rack] += req.VCPUs
		*plannedAny = true
		return rack
	}
	r := s.pickComputeRackPlanned(req.VCPUs, req.LocalMem, plannedCores)
	if r >= 0 {
		plannedCores[r] += req.VCPUs
	}
	return r
}

// pickComputeRackPlanned applies the placement policy to rack choice
// with the batch's already-planned cores subtracted from each rack's
// free-core aggregate — O(racks) arithmetic with no confirming brick
// pick (a mis-estimate surfaces as a leftover and is re-placed against
// committed state in the merge phase).
func (s *PodScheduler) pickComputeRackPlanned(vcpus int, localMem brick.Bytes, planned []int) int {
	if s.cfg.Policy == PolicySpread {
		best, bestFree := -1, -1
		for i, r := range s.racks {
			free := r.FreeCores() - planned[i]
			if free < vcpus || free <= bestFree || !r.CanPlaceCompute(vcpus, localMem) {
				continue
			}
			best, bestFree = i, free
		}
		return best
	}
	// Power-aware and first-fit pack racks in index order.
	for i, r := range s.racks {
		if r.FreeCores()-planned[i] >= vcpus && r.CanPlaceCompute(vcpus, localMem) {
			return i
		}
	}
	return -1
}

// forEachRack runs fn for every rack index in racks on a pool of at
// most workers goroutines (<= 0 meaning GOMAXPROCS). Rack shards are
// disjoint, so scheduling order cannot affect the outcome.
func (s *PodScheduler) forEachRack(workers int, racks []int, fn func(r int)) {
	workers = resolveWorkers(workers)
	if workers <= 1 || len(racks) <= 1 {
		for _, r := range racks {
			fn(r)
		}
		return
	}
	s.fo.run(workers, len(racks), func(i int) { fn(racks[i]) })
}

// abortBatch tears every committed admission down in reverse request
// order and restores the spill sequence counter, leaving the pod as if
// the batch never ran; it returns the annotated cause.
func (s *PodScheduler) abortBatch(reqs []AdmitRequest, out []AdmitResult, seqStart uint64, failed int, cause error) error {
	for i := len(out) - 1; i >= 0; i-- {
		if out[i].Att != nil {
			if _, err := s.DetachRemoteMemory(out[i].Att); err != nil {
				cause = fmt.Errorf("%w (and rollback of request %d failed: %v)", cause, i, err)
			}
			out[i].Att = nil
		}
		if out[i].computeDone {
			if err := s.racks[out[i].Rack].ReleaseCompute(out[i].CPU, reqs[i].VCPUs, reqs[i].LocalMem); err != nil {
				cause = fmt.Errorf("%w (and rollback of request %d failed: %v)", cause, i, err)
			}
			out[i].computeDone = false
		}
	}
	s.attachSeq = seqStart
	for _, r := range s.racks {
		r.rollbackBoots()
	}
	return fmt.Errorf("sdm: batch admission rolled back at request %d (%q): %w", failed, reqs[failed].Owner, cause)
}

// admitScratch is one pod's reused admission partition state (see
// admitShardPlan): a rack wave — the pod's own, or the row's flat
// commit wave — reads the packed per-rack sub-batches out of it. Each
// pod's scratch is touched only by the worker running that pod's
// plan/merge, so the row's waves stay shared-nothing.
type admitScratch struct {
	rackOf       []int
	plannedCores []int
	counts       []int
	offsets      []int
	subReq       []AdmitRequest
	subOut       []AdmitResult
	pos          []int
	fill         []int
	retry        []bool
	active       []int
	// leftover is the merge list of the pod's own AdmitBatch; row-driven
	// shard calls never touch it.
	leftover []int
}

// admitShardPlan is the first half of the pod's admission engine: the
// partition of a batch (the pod's own, or its shard of a row batch)
// across its racks, packed into the pod's reused scratch so a rack wave
// — the pod's own, or the row's flat (pod, rack) wave — can run every
// rack sub-batch on its own worker. Validation, boot logging and
// all-or-nothing rollback belong to the caller; the plan reads only
// pod-local state. The first compute placement takes the exact
// per-request rack choice, which makes a batch of one reproduce the
// sequential path bit for bit.
func (s *PodScheduler) admitShardPlan(reqs []AdmitRequest) {
	sc := &s.admit
	if cap(sc.rackOf) < len(reqs) {
		sc.rackOf = make([]int, len(reqs))
		sc.pos = make([]int, len(reqs))
		sc.retry = make([]bool, len(reqs))
	}
	if cap(sc.plannedCores) < len(s.racks) {
		sc.plannedCores = make([]int, len(s.racks))
		sc.counts = make([]int, len(s.racks))
		sc.offsets = make([]int, len(s.racks)+1)
		sc.fill = make([]int, len(s.racks))
	}

	// Partition by the O(1) rack-choice aggregates (requests are
	// pre-validated by the caller); attach-only requests go home.
	rackOf := sc.rackOf[:len(reqs)]
	plannedCores := sc.plannedCores[:len(s.racks)]
	clear(plannedCores)
	plannedAny := false
	for i := range reqs {
		if reqs[i].VCPUs == 0 {
			rackOf[i] = reqs[i].Rack
		} else {
			rackOf[i] = s.partitionStep(&reqs[i], plannedCores, &plannedAny)
		}
	}

	// Pack per-rack sub-batches, preserving request order within a rack.
	counts := sc.counts[:len(s.racks)]
	clear(counts)
	dispatched := 0
	for i := range reqs {
		if rackOf[i] >= 0 {
			counts[rackOf[i]]++
			dispatched++
		}
	}
	offsets := sc.offsets[:len(s.racks)+1]
	offsets[0] = 0
	for r := range counts {
		offsets[r+1] = offsets[r] + counts[r]
	}
	if cap(sc.subReq) < dispatched {
		sc.subReq = make([]AdmitRequest, dispatched)
		sc.subOut = make([]AdmitResult, dispatched)
	}
	subReq, subOut := sc.subReq[:dispatched], sc.subOut[:dispatched]
	clear(subOut)
	pos := sc.pos[:len(reqs)]
	fill := sc.fill[:len(s.racks)]
	copy(fill, offsets[:len(s.racks)])
	for i := range reqs {
		r := rackOf[i]
		if r < 0 {
			pos[i] = -1
			continue
		}
		pos[i] = fill[r]
		subReq[fill[r]] = reqs[i]
		fill[r]++
	}
}

// admitShardMerge is the row shard's second half: gather the rack
// shard results and resolve leftovers through the pod's rack→pod spill
// cascade. (The pod's own AdmitBatch gathers and merges itself, since
// it aborts where a shard defers to the row.) A request the pod cannot finish never aborts — a
// definitive failure surfaces as Err (nothing committed, the row
// re-places it), and a committed compute whose remote part found no
// pod-local home surfaces as needSpill (the row crosses pods). The
// merge touches only pod-local state, which is what makes the row's
// selection byte-identical at any worker count.
func (s *PodScheduler) admitShardMerge(reqs []AdmitRequest, out []AdmitResult) {
	sc := &s.admit
	rackOf, pos := sc.rackOf[:len(reqs)], sc.pos[:len(reqs)]
	subOut := sc.subOut

	// Phase 3a — gather.
	retry := sc.retry[:len(reqs)]
	clear(retry)
	for i := range reqs {
		if pos[i] < 0 {
			retry[i] = true
			continue
		}
		out[i] = subOut[pos[i]]
		out[i].Rack = rackOf[i]
		if out[i].Att != nil {
			out[i].Att.CPURack, out[i].Att.MemRack = out[i].Rack, out[i].Rack
		}
		if out[i].Err != nil {
			out[i] = AdmitResult{}
			retry[i] = true
		}
	}

	// Phase 3b — merge leftovers in shard order.
	for i := range reqs {
		req := &reqs[i]
		if retry[i] {
			if req.VCPUs > 0 {
				id, lat, err := s.ReserveCompute(req.Owner, req.VCPUs, req.LocalMem)
				if err != nil {
					// Nothing committed for this request: the row re-places
					// it pod-wide against committed state.
					out[i] = AdmitResult{Err: err}
					continue
				}
				out[i].CPU, out[i].Rack = id.Brick, id.Rack
				out[i].ComputeLat, out[i].computeDone = lat, true
			} else {
				out[i].CPU, out[i].Rack = req.CPU, req.Rack
			}
			if req.Remote > 0 {
				att, lat, err := s.AttachRemoteMemory(req.Owner, topo.PodBrickID{Rack: out[i].Rack, Brick: out[i].CPU}, req.Remote)
				if err != nil {
					// The pod cannot serve the remote part anywhere local;
					// keep the compute and hand the spill to the row.
					out[i].needSpill, out[i].localErr = true, err
					continue
				}
				out[i].Att, out[i].AttachLat = att, lat
			}
			continue
		}
		res := &out[i]
		if req.VCPUs > 0 {
			s.requests++
		}
		if req.Remote > 0 {
			s.requests++
		}
		if res.needSpill {
			att, lat, err := s.attachCross(req.Owner, topo.PodBrickID{Rack: res.Rack, Brick: res.CPU}, req.Remote)
			if err != nil {
				localErr := res.localErr
				if localErr == nil {
					localErr = fmt.Errorf("sdm: no memory brick with %v contiguous free and a spare port", req.Remote)
				}
				s.failures++
				// needSpill stays set: the row crosses pods in its merge.
				res.localErr = fmt.Errorf("sdm: pod attach for %q failed rack-locally (%v) and cross-rack: %w", req.Owner, localErr, err)
				continue
			}
			s.spills++
			res.Att, res.AttachLat = att, lat
			res.needSpill, res.localErr = false, nil
		}
	}
}
