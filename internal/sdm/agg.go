package sdm

// Hierarchical aggregates for the row tier. A podAgg is one pod's own
// cached summary — free cores, free memory, max memory gap, the
// per-power-state maxima of free cores and free local memory on one
// compute brick, and the per-power-state brick census — rolled up from
// the rack index roots;
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
// The maxima are maintained lazily: a rack raising a value updates the
// cached pod max immediately; a rack lowering the value that *was* the
// max marks that max stale, and the next read recomputes it over the
// cached per-rack values — O(racks) off the hot pick loop, amortized
// O(1) because a recompute only follows a shrink of the current
// maximum. The compute maxima are the pod's compute screen: like a rack
// root's, they may come from different bricks, so true needs a
// confirming pick and false is exact.
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
	rackMax   [][nMax]int64

	// max caches the pod-wide maxima over rackMax; stale marks one for
	// recomputation after the maximal rack's value shrank.
	max   [nMax]int64
	stale [nMax]bool

	// Census sums per power state, split by brick kind to mirror
	// Census(kind) one tier down.
	cpuCensus [nStates]int32
	memCensus [nStates]int32
	// Cached per-rack census contributions.
	rackCPUCensus [][nStates]int32
	rackMemCensus [][nStates]int32
}

// The lazily maximized quantities: the largest memory gap, then per
// power state the largest free-core count and the largest free local
// memory on one compute brick (-1 for a state no brick is in).
const (
	maxGapQ   = 0
	maxCoresQ = 1
	maxLocalQ = maxCoresQ + nStates
	nMax      = maxLocalQ + nStates
)

// rackMaxima reads rack r's values of the lazily maximized quantities
// off its index roots.
func rackMaxima(r *Controller) [nMax]int64 {
	var q [nMax]int64
	q[maxGapQ] = r.memIdx.maxFitAAny()
	a, b := r.cpuIdx.rootMaxFit()
	copy(q[maxCoresQ:], a[:])
	copy(q[maxLocalQ:], b[:])
	return q
}

// newPodAgg builds the summary over a pod's racks and installs the
// back-pointers that keep it current.
func newPodAgg(racks []*Controller) *podAgg {
	g := &podAgg{
		racks:         racks,
		rackCores:     make([]int64, len(racks)),
		rackMem:       make([]int64, len(racks)),
		rackMax:       make([][nMax]int64, len(racks)),
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

	// Max invariant: when clean a max is the exact maximum over rackMax;
	// when stale it is an upper bound (set when the maximal rack shrank).
	// A value reaching the bound is therefore the new exact maximum
	// either way; a value dropping from the bound makes it stale.
	q := rackMaxima(r)
	old := &g.rackMax[slot]
	for j, v := range q {
		if v >= g.max[j] {
			g.max[j], g.stale[j] = v, false
		} else if old[j] == g.max[j] {
			g.stale[j] = true
		}
	}
	*old = q

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

// maxOf returns pod max j, recomputing it over the cached per-rack
// values only after the maximal rack's value shrank.
func (g *podAgg) maxOf(j int) int64 {
	if g.stale[j] {
		m := int64(-1)
		for i := range g.rackMax {
			m = max(m, g.rackMax[i][j])
		}
		g.max[j], g.stale[j] = m, false
	}
	return g.max[j]
}

// MaxGap returns the pod's largest contiguous memory gap.
func (g *podAgg) MaxGap() brick.Bytes { return brick.Bytes(g.maxOf(maxGapQ)) }

// canPlaceCompute reports whether some power state's maxima admit
// vcpus free cores and localMem free local memory.
func (g *podAgg) canPlaceCompute(vcpus, localMem int64) bool {
	for st := 0; st < nStates; st++ {
		if g.maxOf(maxCoresQ+st) >= vcpus && g.maxOf(maxLocalQ+st) >= localMem {
			return true
		}
	}
	return false
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
