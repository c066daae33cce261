package sdm

// Batched group commit, the outer half every tier shares. AdmitBatch
// serves a scale-up burst and EvictBatch retires one in three
// deterministic phases:
//
//  1. Partition (serial): admission claims every request's compute in
//     request order through the per-request reserve — child choice, the
//     confirming pick, the claim at the brick it found — so the
//     placement is exactly the sequential one at any batch size, and a
//     request is only routed where it fits. The claims run through the
//     racks' batch planners (pick cache, deferred leaf refreshes,
//     flushed when the partition ends). Eviction splits each request's
//     attachments into the ones its child tears down and the ones
//     crossing this tier. Both pack the per-child sub-batches with one
//     counting sort (packShards); a claimed request carries its location
//     and latency down.
//  2. Waves (parallel): the tier's wave sequence (tierSpec) runs the
//     sub-batches on worker goroutines. The pod runs one rack wave; the
//     row runs a pod routing wave, one flat (pod, rack) commit wave
//     and a pod merge wave. Every wave holds its units' links into the
//     tier indexes above them and touches the leaves after the join. An
//     admission's rack shards only attach. Shards share nothing, so the
//     outcome is byte-identical at any worker count.
//  3. Merge (serial): admission gathers the results and spills the
//     remote parts no child could serve across the tier in request
//     order — the cross circuit, then its packet fallback — folding the
//     attach counters once per batch; eviction gathers and detaches the
//     cross attachments in request order through the one detach body,
//     journaled.
//
// Both are all-or-nothing. A failed admission tears every committed
// admission down in reverse (abortBatch) and restores the boot logs and
// spill sequence counters at every tier; a failed eviction replays
// every journal in reverse (rollbackEvict) — segments re-carve at their
// exact offsets, ports re-acquire, circuits rebuild, packet riders
// re-key, walk orders re-thread without re-stamping, released compute
// re-reserves. A tier running as its parent's shard (a pod under a row)
// routes its sub-batch by location and runs the same merge, but never
// aborts: it leaves a failure in its results for the parent to act on.

import (
	"fmt"

	"repro/internal/brick"
	"repro/internal/sim"
	"repro/internal/topo"
)

// EvictRequest is one retirement of a VM-shaped consumer in a batch:
// the attachments to tear down (child-local and cross mixed, in the
// caller's order — scale-down paths pass newest-first so packet riders
// precede their hosts) and the compute reservation to return.
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

func (r *AdmitRequest) at() topo.RowBrickID {
	return topo.RowBrickID{Pod: r.Pod, Rack: r.Rack, Brick: r.CPU}
}

func (r *AdmitResult) at() topo.RowBrickID {
	return topo.RowBrickID{Pod: r.Pod, Rack: r.Rack, Brick: r.CPU}
}

func (r *EvictRequest) at() topo.RowBrickID {
	return topo.RowBrickID{Pod: r.Pod, Rack: r.Rack, Brick: r.CPU}
}

// shardPack is the reused counting sort of a batch into per-child
// sub-batches: request i goes to child kid[i] (-1: a leftover) at slot
// pos[i] of the packed sub-batch, where each child's requests sit
// contiguously, in request order, at offsets[k]:offsets[k+1]. active
// lists the children with a non-empty sub-batch, ascending.
type shardPack struct {
	kid, pos              []int
	counts, offsets, fill []int
	active                []int
	nk                    int
}

// reset sizes the pack for n requests over kids children.
func (p *shardPack) reset(n, kids int) {
	if cap(p.kid) < n {
		p.kid = make([]int, n)
		p.pos = make([]int, n)
	}
	if cap(p.counts) < kids {
		p.counts = make([]int, kids)
		p.offsets = make([]int, kids+1)
		p.fill = make([]int, kids)
		p.active = make([]int, 0, kids)
	}
	p.nk = kids
}

// span is child k's slot range in the packed sub-batch.
func (p *shardPack) span(k int) (lo, hi int) { return p.offsets[k], p.offsets[k+1] }

// packShards lays src out by p.kid into the reused sub-batch *sub and
// sizes the cleared result slice *out to match.
func packShards[R, O any](p *shardPack, src []R, sub *[]R, out *[]O) {
	kid := p.kid[:len(src)]
	counts := p.counts[:p.nk]
	clear(counts)
	n := 0
	for _, k := range kid {
		if k >= 0 {
			counts[k]++
			n++
		}
	}
	offsets, active := p.offsets[:p.nk+1], p.active[:0]
	offsets[0] = 0
	for k, c := range counts {
		offsets[k+1] = offsets[k] + c
		if c > 0 {
			active = append(active, k)
		}
	}
	p.active = active
	if cap(*sub) < n {
		*sub = make([]R, n)
		*out = make([]O, n)
	}
	s, o := (*sub)[:n], (*out)[:n]
	clear(o)
	pos, fill := p.pos[:len(src)], p.fill[:p.nk]
	copy(fill, offsets)
	for i, k := range kid {
		if k < 0 {
			pos[i] = -1
			continue
		}
		pos[i] = fill[k]
		s[fill[k]] = src[i]
		fill[k]++
	}
}

// rackShard names one (pod, rack) unit of the row's flat commit wave.
type rackShard struct {
	pod, rack int
}

// admitScratch is one tier's reused admission state. A tier's phases
// run sequentially and a shard's scratch is touched only by the worker
// running that shard, so one set per tier suffices and a steady burst
// train stops allocating.
type admitScratch struct {
	shardPack
	// claims holds each request's claimed compute, in request order.
	claims   []claimAt
	subReq   []AdmitRequest
	subOut   []AdmitResult
	leftover []int
	// room is each child's free cores at the partition's first claim at
	// this tier less the cores claimed since; roomHeld marks it live
	// (spread only — see tier.claim).
	room     []int64
	roomHeld bool
	// seq is the tier's spill sequence counter at the batch's start.
	seq uint64
}

// claimAt is where a partition claimed one request's compute, and at
// what control-plane latency.
type claimAt struct {
	loc topo.RowBrickID
	lat sim.Duration
}

// crossItem queues one cross attachment for a tier's serial eviction
// phase, remembering which request it settles into.
type crossItem struct {
	req int
	att *Attachment
}

// evictScratch is one tier's reused eviction state. The shared atts
// backing is pre-sized to the batch's attachment count before the
// split, so the per-request sub-slices carved out of it never move.
type evictScratch struct {
	shardPack
	split  []EvictRequest
	atts   []*Attachment
	cross  []crossItem
	subReq []EvictRequest
	subOut []ReleaseResult
	// res is a top-level batch's merge target.
	res []ReleaseResult
	// log journals the tier's own cross teardowns.
	log []detachUndo
	// shardN is how many requests the last split covered, so
	// rollbackEvict re-reserves exactly their compute; seq is the spill
	// sequence counter at the batch's start.
	shardN int
	seq    uint64
}

// AdmitBatch admits a burst of requests tier-wide using at most workers
// goroutines for the waves (<= 0 means GOMAXPROCS). Results are in
// request order. On error, nothing remains admitted.
func (t *tier[C]) AdmitBatch(reqs []AdmitRequest, workers int) ([]AdmitResult, error) {
	out := make([]AdmitResult, len(reqs))
	return out, t.AdmitBatchInto(reqs, out, workers)
}

// AdmitBatchInto is AdmitBatch writing results into a caller-provided
// slice, whose length must equal len(reqs) — the steady-state form
// for burst trains, which otherwise pay one result-slice allocation
// per batch. Prior contents of out are overwritten.
func (t *tier[C]) AdmitBatchInto(reqs []AdmitRequest, out []AdmitResult, workers int) error {
	if len(out) != len(reqs) {
		return fmt.Errorf("sdm: result slice length %d for %d requests", len(out), len(reqs))
	}
	clear(out)
	if len(reqs) == 0 {
		return nil
	}
	// Validate in request order first: shards cannot abort, and
	// malformed requests surface (and count) exactly as they would
	// mid-partition, which mutates nothing but scratch.
	for i := range reqs {
		req := &reqs[i]
		switch {
		case req.VCPUs < 0:
			return fmt.Errorf("sdm: batch request %d (%q): reserve of %d vcpus", i, req.Owner, req.VCPUs)
		case req.VCPUs == 0:
			if req.Remote == 0 {
				return fmt.Errorf("sdm: batch request %d (%q): no vCPUs and no remote memory", i, req.Owner)
			}
			if bad := t.badLoc(req.at()); bad != "" {
				t.requests++
				t.failures++
				return fmt.Errorf("sdm: batch request %d (%q): %s", i, req.Owner, bad)
			}
		}
	}
	t.beginAdmit()
	defer t.endAdmit()
	n, perr := t.partition(reqs)
	t.spec.admitWaves(workers)
	t.gather(reqs[:n], out[:n])
	if err := t.merge(reqs[:n], out[:n], false); err != nil {
		return err
	}
	if perr != nil {
		// Request n found no compute; every request before it is served,
		// so it is the batch's first failure in request order.
		return t.abortBatch(reqs, out, n, perr)
	}
	return nil
}

// beginAdmit starts the boot logs of every rack below the tier and
// marks every tier's spill sequence counter; endAdmit stops the logs;
// abortAdmit powers the logged boots back down and restores the marks.
func (t *tier[C]) beginAdmit() {
	t.admit.seq = t.attachSeq
	for _, k := range t.kids {
		k.beginAdmit()
	}
}

func (t *tier[C]) endAdmit() {
	for _, k := range t.kids {
		k.endAdmit()
	}
}

func (t *tier[C]) abortAdmit() {
	t.attachSeq = t.admit.seq
	for _, k := range t.kids {
		k.abortAdmit()
	}
}

// partition is the first half of admission. Every compute request, in
// request order, runs the per-request reserve — child choice, the
// confirming pick, the claim at the brick it found — so a request is
// only ever routed where it fits, and the placement is the sequential
// one at any batch size. Attach-only requests, and requests a parent
// tier already claimed, route by location. The per-child sub-batches
// are packed, each claimed request carrying its location and latency
// down. partition returns how many requests it served: all of them, or
// those before the first failed reserve, whose error it returns.
//
// The claims end with the partition: a tier's room here, a pod's under
// a row when its routing partition runs, a claimed rack's batch mode
// when its attach shard does.
func (t *tier[C]) partition(reqs []AdmitRequest) (int, error) {
	sc := &t.admit
	t.dropRoom()
	sc.reset(len(reqs), len(t.kids))
	if cap(sc.claims) < len(reqs) {
		sc.claims = make([]claimAt, len(reqs))
	}
	kid, claims := sc.kid[:len(reqs)], sc.claims[:len(reqs)]
	n, err := len(reqs), error(nil)
	for i := range reqs {
		req := &reqs[i]
		if req.VCPUs == 0 || req.claimed {
			kid[i] = t.kidOf(req.at())
			continue
		}
		loc, lat, e := t.reserve(req.VCPUs, req.LocalMem, true)
		if e != nil {
			n, err = i, e
			break
		}
		kid[i], claims[i] = t.kidOf(loc), claimAt{loc: loc, lat: lat}
	}
	t.dropRoom()
	packShards(&sc.shardPack, reqs[:n], &sc.subReq, &sc.subOut)
	for i := 0; i < n; i++ {
		if reqs[i].VCPUs > 0 && !reqs[i].claimed {
			sub, c := &sc.subReq[sc.pos[i]], &claims[i]
			sub.Pod, sub.Rack, sub.CPU = c.loc.Pod, c.loc.Rack, c.loc.Brick
			sub.claimed, sub.claimLat = true, c.lat
		}
	}
	return n, err
}

// gather copies every dispatched result into out before any merging,
// so a mid-merge abort sees all committed state, and lists the requests
// the merge must revisit: failed ones and ones whose remote part needs
// the spill across this tier. The attach counters fold here, once per
// batch (the partition's reserves counted the compute parts).
func (t *tier[C]) gather(reqs []AdmitRequest, out []AdmitResult) {
	sc := &t.admit
	kid, pos := sc.kid[:len(reqs)], sc.pos[:len(reqs)]
	leftover := sc.leftover[:0]
	var n uint64
	for i := range reqs {
		res := &out[i]
		*res = sc.subOut[pos[i]]
		if t.lvl == 0 {
			res.Rack = kid[i]
		} else {
			res.Pod = kid[i]
		}
		if res.Att != nil {
			// Stamp the tier coordinates now: a mid-merge abort routes
			// teardown through them. Child attachments never leave their
			// child, so both endpoints sit in it.
			t.stampKids(res.Att, kid[i], kid[i])
		}
		if res.Err != nil {
			leftover = append(leftover, i)
			continue
		}
		if reqs[i].Remote > 0 {
			n++
		}
		if res.needSpill {
			leftover = append(leftover, i)
		}
	}
	t.requests += n
	sc.leftover = leftover
}

// merge resolves the leftovers in request order: the spill across this
// tier, then its packet fallback. A top-level batch aborts on the first
// failure; a shard leaves it for its parent — a failed request as Err,
// a committed compute whose remote part found no home in the shard as
// needSpill (the parent spills it).
func (t *tier[C]) merge(reqs []AdmitRequest, out []AdmitResult, shard bool) error {
	for _, i := range t.admit.leftover {
		req, res := &reqs[i], &out[i]
		if res.Err != nil {
			if shard {
				continue
			}
			return t.abortBatch(reqs, out, i, res.Err)
		}
		att, lat, err := t.spillSite(res.at()).attach(req.Owner, res.at(), req.Remote, false)
		if err != nil {
			localErr := res.localErr
			if localErr == nil {
				localErr = t.noGapErr(res.at(), req.Remote)
			}
			t.failures++
			err = t.spillErr(req.Owner, localErr, err)
			if shard {
				// needSpill stays set: the parent spills across its tier.
				res.localErr = err
				continue
			}
			return t.abortBatch(reqs, out, i, err)
		}
		t.spills++
		res.Att, res.AttachLat = att, lat
		res.needSpill, res.localErr = false, nil
	}
	return nil
}

// abortBatch tears every committed admission down in reverse request
// order and restores the boot logs and spill sequence counters at every
// tier, leaving it as if the batch never ran; it returns the annotated
// cause.
func (t *tier[C]) abortBatch(reqs []AdmitRequest, out []AdmitResult, failed int, cause error) error {
	for i := len(out) - 1; i >= 0; i-- {
		if out[i].Att != nil {
			if _, err := t.DetachRemoteMemory(out[i].Att); err != nil {
				cause = fmt.Errorf("%w (and rollback of request %d failed: %v)", cause, i, err)
			}
			out[i].Att = nil
		}
		if out[i].computeDone {
			if err := t.rackOf(out[i].at()).ReleaseCompute(out[i].CPU, reqs[i].VCPUs, reqs[i].LocalMem); err != nil {
				cause = fmt.Errorf("%w (and rollback of request %d failed: %v)", cause, i, err)
			}
			out[i].computeDone = false
		}
	}
	t.abortAdmit()
	return fmt.Errorf("sdm: batch admission rolled back at request %d (%q): %w", failed, reqs[failed].Owner, cause)
}

// EvictBatch retires a burst of consumers tier-wide using at most
// workers goroutines for the waves (<= 0 means GOMAXPROCS). Results
// are in request order. On error, the whole batch rolls back and
// nothing remains evicted.
func (t *tier[C]) EvictBatch(reqs []EvictRequest, workers int) ([]EvictResult, error) {
	out := make([]EvictResult, len(reqs))
	return out, t.EvictBatchInto(reqs, out, workers)
}

// EvictBatchInto is EvictBatch writing results into a caller-provided
// slice, whose length must equal len(reqs) — the steady-state form
// for burst trains, which otherwise pay one result-slice allocation
// per batch. Prior contents of out are overwritten.
func (t *tier[C]) EvictBatchInto(reqs []EvictRequest, out []EvictResult, workers int) error {
	if len(out) != len(reqs) {
		return fmt.Errorf("sdm: result slice length %d for %d requests", len(out), len(reqs))
	}
	clear(out)
	if len(reqs) == 0 {
		return nil
	}
	for i := range reqs {
		if bad := t.badLoc(reqs[i].at()); bad != "" {
			return fmt.Errorf("sdm: batch eviction request %d (%q): %s", i, reqs[i].Owner, bad)
		}
	}
	t.evictPlan(reqs)
	t.spec.evictWaves(workers)
	sc := &t.evict
	if cap(sc.res) < len(reqs) {
		sc.res = make([]ReleaseResult, len(reqs))
	}
	res := sc.res[:len(reqs)]
	if failed, err := t.evictMerge(reqs, res); err != nil {
		return fmt.Errorf("sdm: batch eviction rolled back at request %d (%q): %w", failed, reqs[failed].Owner, t.rollbackEvict(err))
	}
	// The batch committed, so every torn-down attachment is dead: drain
	// them into their compute rack's arena in request order.
	for i := range reqs {
		out[i] = EvictResult{DetachLat: res[i].DetachLat, Detached: res[i].Detached}
		rack := t.rackOf(reqs[i].at())
		for _, att := range reqs[i].Atts {
			rack.freeAttachment(att)
		}
	}
	return nil
}

// evictPlan is the first half of eviction: split every request's
// attachments into the ones this tier owns (queued for the serial cross
// phase — their circuits ride the tier's switch, which no child owns)
// and the rest, and pack the per-child sub-batches. It starts the
// tier's journal and marks its spill sequence counter; each rack starts
// its own journal with its shard (releaseShard).
func (t *tier[C]) evictPlan(reqs []EvictRequest) {
	sc := &t.evict
	sc.log, sc.shardN, sc.seq = sc.log[:0], len(reqs), t.attachSeq
	total := 0
	for i := range reqs {
		total += len(reqs[i].Atts)
	}
	if cap(sc.atts) < total {
		sc.atts = make([]*Attachment, 0, total)
	}
	if cap(sc.split) < len(reqs) {
		sc.split = make([]EvictRequest, len(reqs))
	}
	sc.reset(len(reqs), len(t.kids))
	atts, crossQ := sc.atts[:0], sc.cross[:0]
	split, kid := sc.split[:len(reqs)], sc.kid[:len(reqs)]
	for i := range reqs {
		req := &reqs[i]
		start := len(atts)
		for _, att := range req.Atts {
			if att.cross == &t.crossTier {
				crossQ = append(crossQ, crossItem{req: i, att: att})
			} else {
				atts = append(atts, att)
			}
		}
		split[i] = *req
		split[i].Atts = atts[start:len(atts):len(atts)]
		kid[i] = t.kidOf(req.at())
	}
	sc.atts, sc.cross = atts, crossQ
	packShards(&sc.shardPack, split, &sc.subReq, &sc.subOut)
}

// evictMerge is the second half: gather the child results out of the
// scratch and run the cross phase, journaling for rollbackEvict instead
// of aborting. It returns the index of the first failed request (in
// request order) and its error, or (-1, nil) on success. Packing keeps
// request order within a child, so a child's failure is reached before
// any of its later, unserved entries.
func (t *tier[C]) evictMerge(reqs []EvictRequest, out []ReleaseResult) (int, error) {
	sc := &t.evict
	pos := sc.pos[:len(reqs)]
	for i := range reqs {
		r := &sc.subOut[pos[i]]
		if r.Err != nil {
			return i, r.Err
		}
		out[i].DetachLat, out[i].Detached = r.DetachLat, r.Detached
	}
	for _, ci := range sc.cross {
		lat, err := t.crossSite(ci.att).detach(ci.att, &sc.log)
		if err != nil {
			return ci.req, err
		}
		out[ci.req].DetachLat += lat
		out[ci.req].Detached++
	}
	return -1, nil
}

// rollbackEvict replays the journals of the last eviction in reverse —
// this tier's cross phase first (last torn down), then those of the
// children the batch reached (the others may hold an earlier committed
// batch's journal, which must not replay) — re-reserves the compute the
// tier's racks released, and restores the spill sequence counter,
// leaving the tier as if the eviction never ran. It returns cause,
// annotated with any replay failure.
func (t *tier[C]) rollbackEvict(cause error) error {
	sc := &t.evict
	for i := len(sc.log) - 1; i >= 0; i-- {
		if err := sc.log[i].undoDetach(); err != nil {
			cause = fmt.Errorf("%w (and rollback of %q failed: %v)", cause, sc.log[i].att.Owner, err)
		}
	}
	sc.log = sc.log[:0]
	for _, k := range sc.active {
		cause = t.kids[k].rollbackEvict(cause)
	}
	for i := sc.shardN - 1; i >= 0; i-- {
		res := &sc.subOut[sc.pos[i]]
		if !res.released {
			continue
		}
		rr := &sc.subReq[sc.pos[i]]
		rack := t.rackOf(rr.at())
		node := rack.compute(rr.CPU)
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
		rack.touchCompute(rr.CPU)
		res.released = false
	}
	sc.shardN = 0
	t.attachSeq = sc.seq
	return cause
}
