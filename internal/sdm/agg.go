package sdm

// Hierarchical aggregates for the row tier. A podAgg is one pod's own
// cached summary — free cores, free memory, max memory gap, and the
// per-power-state brick census — rolled up from the rack index roots;
// it is how a pod answers its row the O(1) questions a rack answers
// its pod (the child contract in tier.go). The pod installs it when it
// joins a row (PodScheduler.agg), and each of its rack Controllers
// carries a back-pointer (agg/aggSlot); every index maintenance choke
// point (touch/flush/rebuild) re-reads that rack's O(1) root aggregates
// and applies the delta to the pod summary, so the row's pod choice is
// O(pods) arithmetic over cached values — never a rescan of racks, let
// alone bricks. This is the same trick the pod tier plays
// on rack index roots, applied one level up: rack roots are the leaves
// of the pod summary, pod summaries are the leaves of the row's pick
// loop.
//
// The max gap is the one aggregate that is not a sum. It is maintained
// with a lazy maximum: a rack raising its gap updates the cached pod
// max immediately; a rack lowering the gap that *was* the max marks
// the summary dirty, and the next MaxGap() call recomputes the max
// over the cached per-rack gaps — O(racks) off the hot pick loop,
// amortized O(1) because a recompute only follows a shrink of the
// current maximum.
//
// Aggregates are only installed in indexed-scan mode: under ScanLinear
// the touch hooks return before notifying (faithful to the baseline's
// cost profile), so the summaries would go stale; the pod sums its rack
// roots on demand there.

import "repro/internal/brick"

// podAgg is one pod's cached aggregate summary.
type podAgg struct {
	racks []*Controller

	// Running sums over the cached per-rack values below.
	freeCores int64
	freeMem   int64

	// Cached per-rack contributions, replaced wholesale on notify.
	rackCores []int64
	rackMem   []int64
	rackGap   []brick.Bytes

	// maxGap caches the pod-wide largest memory gap; gapDirty marks it
	// for recomputation after the maximal rack's gap shrank.
	maxGap   brick.Bytes
	gapDirty bool

	// Census sums per power state, split by brick kind to mirror
	// Census(kind) one tier down.
	cpuCensus [nStates]int32
	memCensus [nStates]int32
	// Cached per-rack census contributions.
	rackCPUCensus [][nStates]int32
	rackMemCensus [][nStates]int32
}

// newPodAgg builds the summary over a pod's racks and installs the
// back-pointers that keep it current.
func newPodAgg(racks []*Controller) *podAgg {
	g := &podAgg{
		racks:         racks,
		rackCores:     make([]int64, len(racks)),
		rackMem:       make([]int64, len(racks)),
		rackGap:       make([]brick.Bytes, len(racks)),
		rackCPUCensus: make([][nStates]int32, len(racks)),
		rackMemCensus: make([][nStates]int32, len(racks)),
	}
	for i, r := range racks {
		r.agg, r.aggSlot = g, i
		g.notify(i)
	}
	return g
}

// notify re-reads rack slot's O(1) index-root aggregates and folds the
// delta into the pod summary. Called from the rack's index maintenance
// choke points, so the summary is exact whenever the indexes are.
func (g *podAgg) notify(slot int) {
	r := g.racks[slot]

	cores := r.cpuIdx.rankSum()
	g.freeCores += cores - g.rackCores[slot]
	g.rackCores[slot] = cores

	mem := r.memIdx.rankSum()
	g.freeMem += mem - g.rackMem[slot]
	g.rackMem[slot] = mem

	// maxGap invariant: when clean it is the exact maximum over rackGap;
	// when dirty it is an upper bound (set when the maximal rack shrank).
	// A gap reaching the bound is therefore the new exact maximum either
	// way; a gap dropping from the bound dirties it.
	gap := brick.Bytes(r.memIdx.maxFitAAny())
	old := g.rackGap[slot]
	g.rackGap[slot] = gap
	if gap >= g.maxGap {
		g.maxGap, g.gapDirty = gap, false
	} else if old == g.maxGap {
		g.gapDirty = true
	}

	cc := r.cpuIdx.stateCounts()
	mc := r.memIdx.stateCounts()
	for st := 0; st < nStates; st++ {
		g.cpuCensus[st] += cc[st] - g.rackCPUCensus[slot][st]
		g.memCensus[st] += mc[st] - g.rackMemCensus[slot][st]
	}
	g.rackCPUCensus[slot] = cc
	g.rackMemCensus[slot] = mc
}

// FreeCores returns the pod's cached free-core sum.
func (g *podAgg) FreeCores() int64 { return g.freeCores }

// FreeMemory returns the pod's cached free-byte sum over memory bricks.
func (g *podAgg) FreeMemory() brick.Bytes { return brick.Bytes(g.freeMem) }

// MaxGap returns the pod's largest contiguous memory gap, recomputing
// over the cached per-rack gaps only after the maximal rack shrank.
func (g *podAgg) MaxGap() brick.Bytes {
	if g.gapDirty {
		var m brick.Bytes
		for _, gap := range g.rackGap {
			if gap > m {
				m = gap
			}
		}
		g.maxGap, g.gapDirty = m, false
	}
	return g.maxGap
}

// notifyAgg folds this rack's current index roots into the pod summary
// it rolls up into, if one is installed. While the rack is in deferred
// rollup mode (a row-tier commit wave is running racks of the same pod
// on different workers), the fold is postponed: the rack only marks
// itself pending and the wave's serial epilogue flushes every pending
// rack in deterministic (pod, rack) order. notify reconstructs the
// rack's contribution from the index roots, so one deferred fold at
// the end observes the same final summary as a fold per touch.
func (c *Controller) notifyAgg() {
	if c.agg == nil {
		return
	}
	if c.aggDefer {
		c.aggPending = true
		return
	}
	c.agg.notify(c.aggSlot)
}

// deferAgg switches the rack into deferred rollup mode.
func (c *Controller) deferAgg() { c.aggDefer = true }

// flushAgg leaves deferred rollup mode and folds the rack's pending
// contribution, if any, into the pod summary.
func (c *Controller) flushAgg() {
	c.aggDefer = false
	if c.aggPending {
		c.aggPending = false
		if c.agg != nil {
			c.agg.notify(c.aggSlot)
		}
	}
}
