package sdm

// Batched group-commit admission, row tier. AdmitBatch recurses the
// pod tier's three-phase engine one level up, with the plan *and*
// commit phases sharded across workers:
//
//  1. Partition (serial): every request is assigned a pod by the same
//     O(1) cached aggregates the per-request pod choice reads — pod
//     free-core sums adjusted by the cores already planned onto each
//     pod — so a burst spreads (or packs) across pods the way the
//     policy would have placed it one by one, in O(pods) per request.
//  2. Plan + commit (parallel, three waves): 2a partitions each pod's
//     sub-batch across its racks (one worker per pod); 2b is the flat
//     commit wave — every (pod, rack) shard across the whole row
//     plans *and commits* on its own worker, so rack-local carves,
//     circuit registrations and dirty-set leaf refreshes never drain
//     through a serial loop, and a row of many lightly-loaded pods
//     still keeps every worker busy; 2c merges each pod's leftovers
//     through the pod's rack→pod spill cascade (one worker per pod
//     again). Rack shards of one pod share that pod's aggregate
//     summary, so the rack→pod rollup is deferred during the flat
//     wave and flushed serially in (pod, rack) order before any
//     pod- or row-tier pick reads it — a batched post-commit
//     notifyAgg flush instead of per-touch propagation.
//  3. Merge (serial): leftovers — requests whose planned pod turned
//     out full, or whose pod could not serve the remote part anywhere
//     local — resolve in request order through the sequential row
//     machinery (cross-pod circuits through the row switch, then the
//     row-tier packet fallback), completing the rack→pod→row cascade
//     exactly as the per-request path would. Counters fold once per
//     batch, and only the leftover list is walked. Latency accounting
//     and the attachSeq stamp stay in this serial epilogue.
//
// Every wave writes disjoint state (racks own their bricks and
// indexes, pods own their racks and summary), so the outcome is
// byte-identical at any worker count. Admission is all-or-nothing: if
// any request definitively fails, every committed admission is torn
// down in reverse order and the spill sequence counters of the row
// and every pod restored.

import (
	"fmt"

	"repro/internal/brick"
	"repro/internal/topo"
)

// rackShard names one (pod, rack) unit of the row's flat commit wave.
type rackShard struct {
	pod, rack int
}

// rowAdmitScratch is the row AdmitBatch's reused partition state,
// mirroring rowEvictScratch. Every buffer is fully overwritten or
// length-reset at the top of a batch; AdmitBatch is serial at the row
// tier, so one set is safely reused across batches.
type rowAdmitScratch struct {
	podOf        []int
	plannedCores []int
	counts       []int
	offsets      []int
	subReq       []AdmitRequest
	subOut       []AdmitResult
	pos          []int
	fill         []int
	active       []int
	retry        []bool
	leftover     []int
	shards       []rackShard
	podSeq       []uint64
}

// admitScratch is one pod's reused shard partition state for
// row-driven batches (see admitShardPlan/admitShardMerge): the row's
// flat commit wave reads the packed per-rack sub-batches out of it
// between the two calls. Each pod's scratch is touched only by the
// worker running that pod's plan/merge, so the waves stay
// shared-nothing.
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

// AdmitBatch admits a burst of requests row-wide using at most workers
// goroutines for the sharded plan/commit waves (<= 0 means GOMAXPROCS).
// Results are in request order. On error, nothing remains admitted.
func (s *RowScheduler) AdmitBatch(reqs []AdmitRequest, workers int) ([]AdmitResult, error) {
	out := make([]AdmitResult, len(reqs))
	return out, s.AdmitBatchInto(reqs, out, workers)
}

// AdmitBatchInto is AdmitBatch writing results into a caller-provided
// slice, whose length must equal len(reqs) — the steady-state form
// for burst trains, which otherwise pay one result-slice allocation
// per batch. Prior contents of out are overwritten.
func (s *RowScheduler) AdmitBatchInto(reqs []AdmitRequest, out []AdmitResult, workers int) error {
	if len(out) != len(reqs) {
		return fmt.Errorf("sdm: result slice length %d for %d requests", len(out), len(reqs))
	}
	clear(out)
	if len(reqs) == 0 {
		return nil
	}
	seqStart := s.attachSeq
	sc := &s.admit
	if cap(sc.podSeq) < len(s.pods) {
		sc.podSeq = make([]uint64, len(s.pods))
		sc.plannedCores = make([]int, len(s.pods))
		sc.counts = make([]int, len(s.pods))
		sc.offsets = make([]int, len(s.pods)+1)
		sc.fill = make([]int, len(s.pods))
	}
	podSeqStart := sc.podSeq[:len(s.pods)]
	for p, ps := range s.pods {
		podSeqStart[p] = ps.attachSeq
		for _, r := range ps.racks {
			r.startBootLog()
		}
	}
	defer func() {
		for _, ps := range s.pods {
			for _, r := range ps.racks {
				r.stopBootLog()
			}
		}
	}()

	// Phase 1 — validate everything up front (shards must never see a
	// malformed request: they cannot abort) and partition by the O(1)
	// pod-choice aggregates.
	if cap(sc.podOf) < len(reqs) {
		sc.podOf = make([]int, len(reqs))
		sc.pos = make([]int, len(reqs))
		sc.retry = make([]bool, len(reqs))
	}
	podOf := sc.podOf[:len(reqs)]
	plannedCores := sc.plannedCores[:len(s.pods)]
	clear(plannedCores)
	// Validate in request order first — malformed requests surface (and
	// count) exactly as they would mid-partition, since partitioning
	// itself mutates nothing but scratch — and route attach-only
	// requests to their home pods.
	for i := range reqs {
		req := &reqs[i]
		switch {
		case req.VCPUs < 0:
			return fmt.Errorf("sdm: batch request %d (%q): reserve of %d vcpus", i, req.Owner, req.VCPUs)
		case req.VCPUs == 0:
			if req.Remote == 0 {
				return fmt.Errorf("sdm: batch request %d (%q): no vCPUs and no remote memory", i, req.Owner)
			}
			if req.Pod < 0 || req.Pod >= len(s.pods) {
				s.requests++
				s.failures++
				return fmt.Errorf("sdm: batch request %d (%q): no pod %d in the row", i, req.Owner, req.Pod)
			}
			if req.Rack < 0 || req.Rack >= len(s.pods[req.Pod].racks) {
				s.requests++
				s.failures++
				return fmt.Errorf("sdm: batch request %d (%q): no rack %d in pod %d", i, req.Owner, req.Rack, req.Pod)
			}
			podOf[i] = req.Pod
		}
	}
	// The first compute placement takes the exact per-request pod
	// choice — which also makes a batch of one reproduce the sequential
	// path bit for bit.
	plannedAny := false
	for i := range reqs {
		if reqs[i].VCPUs > 0 {
			podOf[i] = s.partitionStep(&reqs[i], plannedCores, &plannedAny)
		}
	}

	// Pack per-pod sub-batches, preserving request order within a pod.
	counts := sc.counts[:len(s.pods)]
	clear(counts)
	dispatched := 0
	for i := range reqs {
		if podOf[i] >= 0 {
			counts[podOf[i]]++
			dispatched++
		}
	}
	offsets := sc.offsets[:len(s.pods)+1]
	offsets[0] = 0
	for p := range counts {
		offsets[p+1] = offsets[p] + counts[p]
	}
	if cap(sc.subReq) < dispatched {
		sc.subReq = make([]AdmitRequest, dispatched)
		sc.subOut = make([]AdmitResult, dispatched)
	}
	subReq, subOut := sc.subReq[:dispatched], sc.subOut[:dispatched]
	clear(subOut)
	pos := sc.pos[:len(reqs)]
	fill := sc.fill[:len(s.pods)]
	copy(fill, offsets[:len(s.pods)])
	for i := range reqs {
		p := podOf[i]
		if p < 0 {
			pos[i] = -1
			continue
		}
		pos[i] = fill[p]
		subReq[fill[p]] = reqs[i]
		fill[p]++
	}

	// Phase 2a — per-pod rack partition on worker goroutines.
	active := sc.active[:0]
	for p, n := range counts {
		if n > 0 {
			active = append(active, p)
		}
	}
	sc.active = active
	s.forEachPod(workers, active, s.admitPlanWave)

	// Phase 2b — the flat commit wave: every (pod, rack) shard across
	// the row plans and commits on its own worker. The rack→pod rollup
	// is deferred for the wave's duration (rack shards of one pod share
	// a summary) and flushed serially in (pod, rack) order below.
	shards := sc.shards[:0]
	for _, p := range active {
		ps := s.pods[p]
		for r := range ps.racks {
			if ps.admit.counts[r] > 0 {
				shards = append(shards, rackShard{pod: p, rack: r})
			}
		}
	}
	sc.shards = shards
	for _, sh := range shards {
		s.pods[sh.pod].racks[sh.rack].deferAgg()
	}
	s.forEachShard(workers, shards, s.admitCommitWave)
	for _, sh := range shards {
		s.pods[sh.pod].racks[sh.rack].flushAgg()
	}

	// Phase 2c — per-pod merge on worker goroutines: gather the rack
	// shards and run the pod's rack→pod spill cascade. Each pod merge
	// touches only its own racks and summary.
	s.forEachPod(workers, active, s.admitMergeWave)

	// Phase 3a — gather every dispatched result before any merging, so
	// a mid-merge abort sees all worker-committed state in out. Fold the
	// request counters for the whole batch here and collect just the
	// requests the merge loop must revisit: retries and cross-pod
	// spills.
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
		out[i].Pod = podOf[i]
		if out[i].Att != nil {
			// Stamp the row coordinates now: a mid-merge abort routes
			// teardown through them. Shard attachments never leave their
			// pod, so both endpoints sit in it.
			out[i].Att.CPUPod, out[i].Att.MemPod = out[i].Pod, out[i].Pod
		}
		if out[i].Err != nil {
			// The planned pod could not serve the request after all
			// (partition works off pre-batch aggregates); a failed shard
			// request committed nothing, so re-place it through the
			// sequential row path against committed state.
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
					return s.abortBatch(reqs, out, seqStart, podSeqStart, i, err)
				}
				out[i].CPU, out[i].Rack, out[i].Pod = id.Brick, id.Rack, id.Pod
				out[i].ComputeLat, out[i].computeDone = lat, true
			} else {
				out[i].CPU, out[i].Rack, out[i].Pod = req.CPU, req.Rack, req.Pod
			}
			if req.Remote > 0 {
				att, lat, err := s.AttachRemoteMemory(req.Owner, topo.RowBrickID{Pod: out[i].Pod, Rack: out[i].Rack, Brick: out[i].CPU}, req.Remote)
				if err != nil {
					return s.abortBatch(reqs, out, seqStart, podSeqStart, i, err)
				}
				out[i].Att, out[i].AttachLat = att, lat
			}
			continue
		}
		// Every non-retry leftover needs the cross-pod spill.
		res := &out[i]
		att, lat, err := s.attachCross(req.Owner, topo.RowBrickID{Pod: res.Pod, Rack: res.Rack, Brick: res.CPU}, req.Remote)
		if err != nil {
			localErr := res.localErr
			if localErr == nil {
				localErr = fmt.Errorf("sdm: no memory brick in pod %d with %v contiguous free and a spare port", res.Pod, req.Remote)
			}
			s.failures++
			err = fmt.Errorf("sdm: row attach for %q failed pod-locally (%v) and cross-pod: %w", req.Owner, localErr, err)
			return s.abortBatch(reqs, out, seqStart, podSeqStart, i, err)
		}
		s.spills++
		res.Att, res.AttachLat = att, lat
		res.needSpill, res.localErr = false, nil
	}
	return nil
}

// partitionStep is the row analog of the pod tier's: the serial pod
// choice for one request, consuming from plannedCores on success.
func (s *RowScheduler) partitionStep(req *AdmitRequest, plannedCores []int, plannedAny *bool) int {
	if !*plannedAny {
		pod, ok := s.pickComputePod(req.VCPUs, req.LocalMem)
		if !ok {
			return -1
		}
		plannedCores[pod] += req.VCPUs
		*plannedAny = true
		return pod
	}
	p := s.pickComputePodPlanned(req.VCPUs, req.LocalMem, plannedCores)
	if p >= 0 {
		plannedCores[p] += req.VCPUs
	}
	return p
}

// pickComputePodPlanned applies the placement policy to pod choice
// with the batch's already-planned cores subtracted from each pod's
// cached free-core aggregate — O(pods) arithmetic with no confirming
// pick (a mis-estimate surfaces as a leftover and is re-placed against
// committed state in the merge phase).
func (s *RowScheduler) pickComputePodPlanned(vcpus int, localMem brick.Bytes, planned []int) int {
	if s.cfg.Policy == PolicySpread {
		best, bestFree := -1, int64(-1)
		for i := range s.pods {
			free := s.podFreeCores(i) - int64(planned[i])
			if free < int64(vcpus) || free <= bestFree {
				continue
			}
			best, bestFree = i, free
		}
		return best
	}
	// Power-aware and first-fit pack pods in index order.
	for i := range s.pods {
		if s.podFreeCores(i)-int64(planned[i]) >= int64(vcpus) {
			return i
		}
	}
	return -1
}

// forEachPod runs fn for every pod index in pods on a pool of at most
// workers goroutines (<= 0 meaning GOMAXPROCS). Pod shards are
// disjoint — each pod scheduler owns its racks, fabrics, indexes and
// aggregate summary — so scheduling order cannot affect the outcome.
func (s *RowScheduler) forEachPod(workers int, pods []int, fn func(p int)) {
	workers = resolveWorkers(workers)
	if workers <= 1 || len(pods) <= 1 {
		for _, p := range pods {
			fn(p)
		}
		return
	}
	s.fo.run(workers, len(pods), func(i int) { fn(pods[i]) })
}

// forEachShard is forEachPod for the flat (pod, rack) commit wave:
// every shard writes only its own rack's state — the shared pod
// summary is not among it, because every shard rack enters the wave in
// deferred-rollup mode and only marks its own pending flag — so
// scheduling order cannot affect the outcome.
func (s *RowScheduler) forEachShard(workers int, shards []rackShard, fn func(sh rackShard)) {
	workers = resolveWorkers(workers)
	if workers <= 1 || len(shards) <= 1 {
		for _, sh := range shards {
			fn(sh)
		}
		return
	}
	s.fo.run(workers, len(shards), func(i int) { fn(shards[i]) })
}

// abortBatch tears every committed admission down in reverse request
// order and restores the spill sequence counters of the row and every
// pod, leaving the row as if the batch never ran; it returns the
// annotated cause.
func (s *RowScheduler) abortBatch(reqs []AdmitRequest, out []AdmitResult, seqStart uint64, podSeqStart []uint64, failed int, cause error) error {
	for i := len(out) - 1; i >= 0; i-- {
		if out[i].Att != nil {
			if _, err := s.DetachRemoteMemory(out[i].Att); err != nil {
				cause = fmt.Errorf("%w (and rollback of request %d failed: %v)", cause, i, err)
			}
			out[i].Att = nil
		}
		if out[i].computeDone {
			if err := s.pods[out[i].Pod].racks[out[i].Rack].ReleaseCompute(out[i].CPU, reqs[i].VCPUs, reqs[i].LocalMem); err != nil {
				cause = fmt.Errorf("%w (and rollback of request %d failed: %v)", cause, i, err)
			}
			out[i].computeDone = false
		}
	}
	s.attachSeq = seqStart
	for p, ps := range s.pods {
		ps.attachSeq = podSeqStart[p]
		for _, r := range ps.racks {
			r.rollbackBoots()
		}
	}
	return fmt.Errorf("sdm: batch admission rolled back at request %d (%q): %w", failed, reqs[failed].Owner, cause)
}

// admitShardPlan is the first half of a pod's row-shard engine: the
// pod tier's own partition of the shard across its racks, packed into
// the pod's reused scratch so the row's flat commit wave can run every
// (pod, rack) sub-batch on its own worker. Validation, boot logging
// and all-or-nothing rollback belong to the row tier; the plan reads
// only pod-local state.
func (s *PodScheduler) admitShardPlan(reqs []AdmitRequest, out []AdmitResult) {
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

	// Phase 1 — partition by the O(1) rack-choice aggregates (requests
	// are pre-validated by the row).
	rackOf := sc.rackOf[:len(reqs)]
	plannedCores := sc.plannedCores[:len(s.racks)]
	clear(plannedCores)
	plannedAny := false
	for i := range reqs {
		req := &reqs[i]
		switch {
		case req.VCPUs == 0:
			rackOf[i] = req.Rack
		case !plannedAny:
			rack, ok := s.pickComputeRackExcept(req.VCPUs, req.LocalMem, -1)
			if !ok {
				rackOf[i] = -1
				continue
			}
			rackOf[i] = rack
			plannedCores[rack] += req.VCPUs
			plannedAny = true
		default:
			rackOf[i] = s.pickComputeRackPlanned(req.VCPUs, req.LocalMem, plannedCores)
			if rackOf[i] >= 0 {
				plannedCores[rackOf[i]] += req.VCPUs
			}
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

// admitShard runs a pod's row shard serially: the plan, the rack
// commits in index order, and the merge. The row's AdmitBatch runs the
// same three stages itself so the rack commits of different pods share
// one flat wave; this entry point serves callers that want the shard
// as one unit.
func (s *PodScheduler) admitShard(reqs []AdmitRequest, out []AdmitResult) {
	s.admitShardPlan(reqs, out)
	sc := &s.admit
	for r := range s.racks {
		if sc.counts[r] > 0 {
			s.racks[r].placeBatch(sc.subReq[sc.offsets[r]:sc.offsets[r+1]], sc.subOut[sc.offsets[r]:sc.offsets[r+1]], true)
		}
	}
	s.admitShardMerge(reqs, out)
}

// admitShardMerge is the second half of the shard engine: gather the
// rack shard results and resolve leftovers through the pod's rack→pod
// spill cascade. A request the pod cannot finish never aborts — a
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
