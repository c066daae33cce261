package sdm

// The placement index: one segment tree per brick kind and per tier.
// A rack controller keeps a placementIndex over its compute bricks and
// one over its memory bricks, in the controller's deterministic brick
// order; a pod keeps one of each over its racks, and a row over its
// pods. Every node carries per-power-state maxima of the two fitness
// dimensions, the maximum rank, the rank sum and the per-state census,
// so one node type and one set of descents serve every level:
//
//   - a brick leaf is the one-state node setLeaf builds from the brick's
//     capacity vector (pstat);
//   - a tier leaf is a child's root node — a rack's under its pod, a
//     pod's tier root under its row — whose rank is the child's free
//     cores (or, while a batch partition holds it, the child's room) or
//     free bytes. Its fitness maxima come from different bricks, so a
//     tier descent yields candidates that the child's own pick must
//     confirm.
//
// Every placement policy becomes an ordered-tree descent — O(log n) on
// typical inventories; adversarial shapes (every subtree viable
// because the two fitness maxima come from different leaves, or ranks
// monotonically increasing in order position) degrade a descent to
// O(n), the same bound as the linear scan, never worse:
//
//   - first-fit descends to the lowest order position at or after a
//     start whose leaf fits, which preserves the pre-index order
//     semantics exactly (a tier resumes after a refused confirm);
//   - spread descends for the next leaf in (rank descending, position
//     ascending) order after a bound — the maximum rank among fitting
//     leaves on the first call, the next candidate after a refused one;
//   - power-aware runs the first-fit descent once per power bucket in
//     preference order, pruned by the per-state maxima (bricks), or the
//     any-state first-fit descent (tiers: the child's pick applies the
//     buckets).
//
// Leaves refresh at the single choke point every mutation already flows
// through — the lifecycle engine's commit/rollback plus the handful of
// direct reservation paths — and a refresh that leaves the leaf as it
// was (an untouched brick, or a compute brick whose only change was a
// transceiver port) is a no-op comparison. A refresh that moves a root
// touches that root's leaf in the parent tier's index (up), so every
// tier answers from current roots. Inside a fan-out wave the link up is
// held: the touch is recorded and replayed serially after the join.

import (
	"fmt"
	"slices"

	"repro/internal/brick"
	"repro/internal/topo"
)

// nStates is the number of brick power states bucketed by the index.
const nStates = 3

// pstat is one brick's scheduler-visible capacity vector.
type pstat struct {
	state brick.PowerState
	// fitA/fitB are the two fitness dimensions a placement must satisfy:
	// free cores / free local bytes for compute bricks, largest
	// contiguous gap / free transceiver ports for memory bricks.
	fitA, fitB int64
	// rank orders the spread policy: free cores for compute bricks,
	// total free bytes for memory bricks.
	rank int64
}

// node is one segment-tree node: per-power-state maxima of the fitness
// dimensions (-1 for a state no leaf below is in), the maximum leaf
// rank, the rank sum and the per-state brick census.
type node struct {
	maxFitA [nStates]int64
	maxFitB [nStates]int64
	maxRank int64
	sumRank int64
	cnt     [nStates]int32
}

// placementIndex is the ordered capacity index over one brick kind's
// bricks, or over one tier's children.
type placementIndex struct {
	n    int // leaf count
	size int // leaf span (power of two >= max(n, 1)); leaf pos is tree[size+pos]
	tree []node
	// refresh brings leaf nd, at one order position, up to the live
	// state and reports whether it moved.
	refresh func(pos int, nd *node) bool
	// work is touchMany's reused ancestor worklist.
	work []int

	// up is the parent tier's index, in which this index's root is leaf
	// upAt (nil at the top, and under ScanLinear). While held, a root
	// move only marks pending; release queues upAt in the parent's
	// marked list, which the parent's flush touches.
	up            *placementIndex
	upAt          int
	held, pending bool
	marked        []int
}

// newPlacementIndex builds the index over n leaves.
func newPlacementIndex(n int, refresh func(pos int, nd *node) bool) *placementIndex {
	size := 1
	for size < n {
		size *= 2
	}
	t := &placementIndex{
		n:       n,
		size:    size,
		tree:    make([]node, 2*size),
		refresh: refresh,
	}
	t.rebuild()
	return t
}

// setLeaf makes nd a brick's leaf — the one-state node of its capacity
// vector — and reports whether it moved.
func (nd *node) setLeaf(s pstat) bool {
	st := int(s.state)
	if nd.cnt[st] == 1 && nd.maxFitA[st] == s.fitA && nd.maxFitB[st] == s.fitB && nd.sumRank == s.rank {
		// A brick leaf counts one brick, so it is this vector already.
		return false
	}
	for st := 0; st < nStates; st++ {
		nd.maxFitA[st] = -1
		nd.maxFitB[st] = -1
		nd.cnt[st] = 0
	}
	nd.maxFitA[st] = s.fitA
	nd.maxFitB[st] = s.fitB
	nd.maxRank = s.rank
	nd.sumRank = s.rank
	nd.cnt[st] = 1
	return true
}

// setRoot makes nd a tier leaf — a child's root r ranked by rank — and
// reports whether it moved.
func (nd *node) setRoot(r *node, rank int64) bool {
	if nd.maxRank == rank && nd.sumRank == r.sumRank && nd.maxFitA == r.maxFitA && nd.maxFitB == r.maxFitB && nd.cnt == r.cnt {
		return false
	}
	*nd = *r
	nd.maxRank = rank
	return true
}

// emptyNode is the identity of setMerge, the leaf at positions past n.
var emptyNode = node{
	maxFitA: [nStates]int64{-1, -1, -1},
	maxFitB: [nStates]int64{-1, -1, -1},
	maxRank: -1,
}

// setMerge combines two child nodes in place — the tree's hot path runs
// through here on every touch, so nodes are never copied by value.
func (nd *node) setMerge(a, b *node) {
	for st := 0; st < nStates; st++ {
		nd.maxFitA[st] = max(a.maxFitA[st], b.maxFitA[st])
		nd.maxFitB[st] = max(a.maxFitB[st], b.maxFitB[st])
		nd.cnt[st] = a.cnt[st] + b.cnt[st]
	}
	nd.maxRank = max(a.maxRank, b.maxRank)
	nd.sumRank = a.sumRank + b.sumRank
}

// rebuild refreshes every leaf and recomputes the tree bottom-up —
// used at construction and after bulk mutations (power sweeps).
func (t *placementIndex) rebuild() {
	for i := 0; i < t.size; i++ {
		if i < t.n {
			t.refresh(i, &t.tree[t.size+i])
		} else {
			t.tree[t.size+i] = emptyNode
		}
	}
	for i := t.size - 1; i >= 1; i-- {
		t.tree[i].setMerge(&t.tree[2*i], &t.tree[2*i+1])
	}
	t.rootMoved()
}

// touch re-reads the leaf at one order position and, if it moved,
// updates the leaf and its root path — the O(log n) maintenance step
// run at every mutation choke point.
func (t *placementIndex) touch(pos int) {
	if pos < 0 || pos >= t.n {
		return
	}
	i := t.size + pos
	if !t.refresh(pos, &t.tree[i]) {
		return
	}
	for i >>= 1; i >= 1; i >>= 1 {
		t.tree[i].setMerge(&t.tree[2*i], &t.tree[2*i+1])
	}
	t.rootMoved()
}

// rerank sets the rank of the leaf at pos and recomputes the maximum
// rank up its root path, stopping where it no longer moves — a tier's
// room claim. Nothing propagates up a tier: a tier leaf ranks by its
// child's rank sum or room, never by the child's maximum rank.
func (t *placementIndex) rerank(pos int, rank int64) {
	i := t.size + pos
	t.tree[i].maxRank = rank
	for i >>= 1; i >= 1; i >>= 1 {
		m := max(t.tree[2*i].maxRank, t.tree[2*i+1].maxRank)
		if t.tree[i].maxRank == m {
			return
		}
		t.tree[i].maxRank = m
	}
}

// touchMany is touch for a batch flush: it refreshes every listed order
// position once, then recomputes each affected ancestor exactly once,
// level by level. One root path per touched leaf is the right shape for
// sparse updates, but a group commit that dirtied much of the tree
// (spread placement lands every request on a distinct brick) walks the
// shared upper levels once per leaf; here the paths union instead, so a
// flush costs at most one recompute per tree node. The resulting tree
// is identical to applying touch per position — node values are pure
// functions of the leaves, independent of recompute order.
func (t *placementIndex) touchMany(poss []int) {
	// Small flushes (one or two leaves — the common case for the
	// per-pick flushes of spread placement and single-attachment
	// commits) are cheaper as plain root paths than as a sorted
	// worklist.
	if len(poss) <= 2 {
		for _, pos := range poss {
			t.touch(pos)
		}
		return
	}
	w := t.work[:0]
	for _, pos := range poss {
		if pos < 0 || pos >= t.n {
			continue
		}
		if t.refresh(pos, &t.tree[t.size+pos]) {
			w = append(w, t.size+pos)
		}
	}
	if len(w) == 0 {
		return
	}
	slices.Sort(w)
	// Sorted node indices map to sorted parent indices, so each level
	// dedups with an adjacent-equality check; the loop ends right after
	// the iteration that recomputes the root (index 1).
	for w[0] > 1 {
		n := 0
		for _, i := range w {
			if p := i >> 1; n == 0 || w[n-1] != p {
				w[n] = p
				n++
			}
		}
		w = w[:n]
		for _, i := range w {
			t.tree[i].setMerge(&t.tree[2*i], &t.tree[2*i+1])
		}
	}
	t.work = w[:0]
	t.rootMoved()
}

// rootMoved carries a root change up one tier: a touch of this index's
// leaf in its parent's, or, while the link is held, a pending mark.
func (t *placementIndex) rootMoved() {
	switch {
	case t.up == nil:
	case t.held:
		t.pending = true
	default:
		t.up.touch(t.upAt)
	}
}

// hold defers this index's touches of its parent for a fan-out wave, in
// which the parent's other children run on other workers; release ends
// the wave's hold and queues a deferred touch in the parent, and the
// parent's flush then touches every queued leaf at once (touchMany), so
// a wave costs each tier node one recompute. All three are no-ops on
// an unbuilt (nil) index.
func (t *placementIndex) hold() {
	if t != nil {
		t.held = true
	}
}

func (t *placementIndex) release() {
	if t == nil {
		return
	}
	t.held = false
	if t.pending {
		t.pending = false
		t.up.marked = append(t.up.marked, t.upAt)
	}
}

func (t *placementIndex) flush() {
	if t == nil || len(t.marked) == 0 {
		return
	}
	t.touchMany(t.marked)
	t.marked = t.marked[:0]
}

// fitsAny reports whether a node may contain a leaf (in any power
// state) satisfying both fitness thresholds. Conservative for inner
// nodes and tier leaves: the maxima of the two dimensions may come from
// different bricks, so a true answer still needs confirmation; a false
// answer is exact. On a brick leaf it is exact.
func (nd *node) fitsAny(minA, minB int64) bool {
	for st := 0; st < nStates; st++ {
		if nd.maxFitA[st] >= minA && nd.maxFitB[st] >= minB {
			return true
		}
	}
	return false
}

// fitsState is fitsAny restricted to one power state.
func (nd *node) fitsState(st int, minA, minB int64) bool {
	return nd.maxFitA[st] >= minA && nd.maxFitB[st] >= minB
}

// maxA returns the node's largest first-dimension fitness value over
// all states, 0 when it holds no leaf — a memory root's largest gap.
func (nd *node) maxA() int64 {
	return max(0, nd.maxFitA[0], nd.maxFitA[1], nd.maxFitA[2])
}

// root is the index's root node.
func (t *placementIndex) root() *node { return &t.tree[1] }

// leaf is the leaf at order position pos.
func (t *placementIndex) leaf(pos int) *node { return &t.tree[t.size+pos] }

// firstFit returns the lowest order position at or after from whose
// leaf satisfies both thresholds in any power state, skipping exclude;
// -1 if none.
func (t *placementIndex) firstFit(from int, minA, minB int64, exclude int) int {
	return t.descendFirst(from, exclude, -1, minA, minB)
}

// firstFitState is firstFit from position 0 restricted to one power
// state.
func (t *placementIndex) firstFitState(state brick.PowerState, minA, minB int64, exclude int) int {
	return t.descendFirst(0, exclude, int(state), minA, minB)
}

// The descents walk the tree in pre-order without a stack: a node that
// passes descends to its left child; one that fails, or a leaf, moves
// on to the next subtree — up past every right child, then across to
// the right sibling. lo and n are the first order position and the leaf
// count under node i; the walk ends when it climbs past the root.

// descendFirst walks the tree left to right for the first leaf at or
// after from that fits in state st (any state if st < 0).
func (t *placementIndex) descendFirst(from, exclude, st int, minA, minB int64) int {
	i, lo, n := 1, 0, t.size
	for {
		nd := &t.tree[i]
		fits := lo < t.n && lo+n > from
		if fits && st < 0 {
			fits = nd.fitsAny(minA, minB)
		} else if fits {
			fits = nd.fitsState(st, minA, minB)
		}
		if fits && n > 1 {
			i, n = 2*i, n/2
			continue
		}
		if fits && lo != exclude {
			return lo
		}
		for ; i&1 == 1; i >>= 1 {
			lo, n = lo-n, 2*n
		}
		if i == 0 {
			return -1
		}
		i, lo = i+1, lo+n
	}
}

// spreadNext returns the position and rank of the first leaf satisfying
// both thresholds (any state) in (rank descending, position ascending)
// order that comes after (lastRank, last), skipping exclude; -1 if none.
// With lastRank = math.MaxInt64 it is the maximum-rank fitting leaf,
// lowest position winning ties — exactly the linear spread scan's
// strict-">" answer; a tier passes its refused candidate to get the
// next one. The walk goes left to right, pruning every subtree whose
// maximum rank cannot beat the best leaf found.
func (t *placementIndex) spreadNext(minA, minB int64, exclude int, lastRank int64, last int) (int, int64) {
	best, bestRank := -1, int64(-1)
	i, lo, n := 1, 0, t.size
	for {
		nd := &t.tree[i]
		if lo < t.n && nd.maxRank > bestRank && nd.fitsAny(minA, minB) {
			if n > 1 {
				i, n = 2*i, n/2
				continue
			}
			if r := nd.maxRank; lo != exclude && (r < lastRank || (r == lastRank && lo > last)) {
				best, bestRank = lo, r
			}
		}
		for ; i&1 == 1; i >>= 1 {
			lo, n = lo-n, 2*n
		}
		if i == 0 {
			return best, bestRank
		}
		i, lo = i+1, lo+n
	}
}

// maxFitAAny returns the largest first-dimension fitness value over
// all leaves (any state) — a rack's or tier's largest memory gap, read
// in O(1) at the root.
func (t *placementIndex) maxFitAAny() int64 { return t.root().maxA() }

// canFit reports whether some leaf may satisfy both thresholds — the
// O(1) root screen. Conservative in the same way fitsAny is.
func (t *placementIndex) canFit(minA, minB int64) bool { return t.root().fitsAny(minA, minB) }

// rankSum returns the total rank over all bricks — the free cores
// (compute) or free bytes (memory) below the index, read in O(1).
func (t *placementIndex) rankSum() int64 { return t.root().sumRank }

// census returns the per-power-state brick census below the index,
// read in O(1) at the root.
func (t *placementIndex) census() PowerCensus {
	cnt := t.root().cnt
	return PowerCensus{Off: int(cnt[brick.PowerOff]), Idle: int(cnt[brick.PowerIdle]), Active: int(cnt[brick.PowerActive])}
}

// check recomputes every leaf through refresh and every inner node
// through setMerge and reports the first node that differs, or a root
// move still held back — the invariant checker's exact recompute.
func (t *placementIndex) check() error {
	if t.held || t.pending || len(t.marked) > 0 {
		return fmt.Errorf("touches still deferred")
	}
	for pos := 0; pos < t.size; pos++ {
		// A refresh of the empty node rewrites every field.
		want := emptyNode
		if pos < t.n {
			t.refresh(pos, &want)
		}
		if got := *t.leaf(pos); got != want {
			return fmt.Errorf("leaf %d is %+v, a refresh reads %+v", pos, got, want)
		}
	}
	for i := t.size - 1; i >= 1; i-- {
		var want node
		want.setMerge(&t.tree[2*i], &t.tree[2*i+1])
		if t.tree[i] != want {
			return fmt.Errorf("node %d is %+v, its children merge to %+v", i, t.tree[i], want)
		}
	}
	return nil
}

// computeStat reads the capacity vector of the compute brick at one
// order position.
func (c *Controller) computeStat(pos int) pstat {
	b := c.computes[pos].Brick
	return pstat{
		state: b.State(),
		fitA:  int64(b.FreeCores()),
		fitB:  int64(b.LocalMemory - b.UsedLocal()),
		rank:  int64(b.FreeCores()),
	}
}

// memoryStat reads the capacity vector of the memory brick at one
// order position.
func (c *Controller) memoryStat(pos int) pstat {
	m := c.memories[pos]
	return pstat{
		state: m.State(),
		fitA:  int64(m.LargestGap()),
		fitB:  int64(m.Ports.Free()),
		rank:  int64(m.Free()),
	}
}

// buildIndexes constructs both placement indexes; called once the
// brick orders are final. (The [tray][slot] → ordinal pos tables are
// built alongside the orders in NewController.)
func (c *Controller) buildIndexes() {
	c.cpuIdx = newPlacementIndex(len(c.computeOrder), func(pos int, nd *node) bool { return nd.setLeaf(c.computeStat(pos)) })
	c.memIdx = newPlacementIndex(len(c.memoryOrder), func(pos int, nd *node) bool { return nd.setLeaf(c.memoryStat(pos)) })
}

// touchCompute refreshes one compute brick's index leaf. In linear-scan
// mode the indexes are not consulted, so maintenance is skipped to keep
// the baseline's cost profile faithful to the pre-index path. Under
// batch planning the refresh is deferred instead: the position joins
// the batch's dirty set and is flushed once per batch (see batch.go).
func (c *Controller) touchCompute(id topo.BrickID) {
	if c.cfg.Scan == ScanLinear {
		return
	}
	pos := c.cpuPos(id)
	if pos < 0 {
		return
	}
	if b := c.batch; b != nil && b.active {
		if !b.inDirtyCPU[pos] {
			b.inDirtyCPU[pos] = true
			b.dirtyCPU = append(b.dirtyCPU, pos)
		}
		return
	}
	c.cpuIdx.touch(pos)
}

// touchMemory refreshes one memory brick's index leaf (deferred to the
// batch dirty set under batch planning, like touchCompute).
func (c *Controller) touchMemory(id topo.BrickID) {
	if c.cfg.Scan == ScanLinear {
		return
	}
	pos := c.memPos(id)
	if pos < 0 {
		return
	}
	if b := c.batch; b != nil && b.active {
		if !b.inDirtyMem[pos] {
			b.inDirtyMem[pos] = true
			b.dirtyMem = append(b.dirtyMem, pos)
		}
		return
	}
	c.memIdx.touch(pos)
}

// reindexAll rebuilds both indexes after a bulk mutation (power sweep).
func (c *Controller) reindexAll() {
	if c.cfg.Scan == ScanLinear {
		return
	}
	c.cpuIdx.rebuild()
	c.memIdx.rebuild()
}

// CanPlaceCompute reports in O(1) whether the rack may have a compute
// brick with the requested free cores and local memory. A true answer
// must be confirmed by pickCompute (the maxima may come from different
// bricks); false is exact, as at every index root — callers use it to
// skip infeasible racks without scanning their bricks.
func (c *Controller) CanPlaceCompute(vcpus int, localMem brick.Bytes) bool {
	if c.cfg.Scan == ScanLinear {
		_, ok := c.pickCompute(vcpus, localMem)
		return ok
	}
	return c.cpuIdx.canFit(int64(vcpus), int64(localMem))
}

// MaxMemoryGap returns the largest contiguous free region on any of
// the rack's memory bricks — O(1) at the index root; a batch's rack
// shard uses it to skip a doomed rack-local attach without building a
// plan.
func (c *Controller) MaxMemoryGap() brick.Bytes {
	if c.cfg.Scan == ScanLinear {
		var best brick.Bytes
		for _, m := range c.memories {
			if g := m.LargestGapScan(); g > best {
				best = g
			}
		}
		return best
	}
	return brick.Bytes(c.memIdx.maxFitAAny())
}
