package sdm

// The tier body. A pod routes requests to rack Controllers; a row
// routes them to PodSchedulers with the same placement contract one
// level up (DESIGN §11). Both embed one tier[C] over their children:
//
//   - Child choice is a descent of the tier's own placement index, one
//     compute and one memory index whose leaves are the children's
//     roots (index.go), plus one confirming pick per candidate: a
//     refused candidate resumes the descent after it.
//   - A memory request the VM's child cannot serve spills across the
//     tier's own circuit switch. The spill runs the one attach body at
//     the tier's attach site (spillSite): its circuit crosses the
//     tier's switch, and when none can be provisioned the attachment
//     rides an existing cross circuit of the same compute brick in
//     packet mode.
//   - Cross attachments register on their compute rack, carry the
//     owning tier's crossTier as their tag, and detach through the
//     site that tier builds (crossSite), from any entry point.
//
// A tier addresses bricks row-wide (topo.RowBrickID); the pod tier
// leaves the Pod field alone. What stays tier-specific is behind
// tierSpec: the switch fabric between two children, the batch engines'
// wave sequence and re-pointing a cross attachment.

import (
	"fmt"
	"math"

	"repro/internal/brick"
	"repro/internal/sim"
	"repro/internal/tgl"
	"repro/internal/topo"
)

// child is what a tier asks of the units it routes to — a rack
// Controller under a pod, a PodScheduler under a row. Its index roots
// are the tier's leaves; the picks confirm a descent's candidate.
type child interface {
	// indexes are the child's own compute and memory placement indexes
	// (nil for a pod under ScanLinear).
	indexes() (cpu, mem *placementIndex)
	// freeCores, freeMemory and fitsMemory serve the ScanLinear loops.
	freeCores() int64
	freeMemory() brick.Bytes
	// pickComputeIn is the confirming compute pick: the brick the
	// child's own policy would reserve, addressed below this tier.
	// cached serves rack picks from the batch pick cache of racks a
	// partition has claimed on.
	pickComputeIn(vcpus int, localMem brick.Bytes, cached bool) (topo.RowBrickID, bool)
	fitsMemory(size brick.Bytes) bool
	// pickMem is the confirming memory pick: the memory end of a spill
	// landing on this child, which sits at index self in its tier.
	pickMem(size brick.Bytes, self int) (memPick, bool)
	// rackAt returns the child's rack i (a rack is its own only rack);
	// hasRack validates i.
	rackAt(i int) *Controller
	hasRack(i int) bool

	// claimIn reserves the cores and local memory at loc, which the
	// child's confirming pick returned, counting the request at every
	// tier on the way down.
	claimIn(loc topo.RowBrickID, vcpus int, localMem brick.Bytes, cached bool) (sim.Duration, error)
	releaseIn(id topo.RowBrickID, vcpus int, localMem brick.Bytes) error
	attachIn(owner string, cpu topo.RowBrickID, size brick.Bytes) (*Attachment, sim.Duration, error)
	// doom mirrors the counters of an attach the parent's doom screen
	// skipped.
	doom(cpu topo.RowBrickID)
	DetachRemoteMemory(att *Attachment) (sim.Duration, error)

	AppendAttachments(dst []*Attachment, owner string) []*Attachment
	PowerOffIdle() int
	PowerOnAll()
	Census(kind topo.BrickKind) PowerCensus
	DrawW(profiles map[topo.BrickKind]brick.PowerProfile) float64

	// Batch bookkeeping: boot logs and spill sequence marks for an
	// admission's all-or-nothing abort, undo journals for an eviction's.
	beginAdmit()
	endAdmit()
	abortAdmit()
	rollbackEvict(cause error) error
}

// tierSpec is what stays tier-specific, implemented by PodScheduler
// and RowScheduler.
type tierSpec interface {
	// crossSite, pickSpill and rackOf are the tier body's own
	// (promoted); they are here so an attachment's owner tag, and the
	// attach site of a spill, can reach them.
	crossSite(att *Attachment) detachSite
	pickSpill(size brick.Bytes, home int) (memPick, bool, error)
	rackOf(l topo.RowBrickID) *Controller
	// crossLink is the circuit tier joining two row-wide endpoints.
	crossLink(cpu, mem topo.RowBrickID) connector
	admitWaves(workers int)
	evictWaves(workers int)
	repoint(att *Attachment, newCPU topo.BrickID) (tgl.Entry, sim.Duration, error)
}

// tierNames holds the nouns of each level's error texts; site is the
// detach-site noun, with its trailing space.
var tierNames = [2]struct{ tier, kid, cross, site string }{
	{"pod", "rack", "cross-rack", "cross-rack "},
	{"row", "pod", "cross-pod", "cross-pod "},
}

// tier is the body shared by the pod (C = *Controller) and the row
// (C = *PodScheduler).
type tier[C child] struct {
	cfg  Config
	kids []C
	// sw is the tier's own circuit switch, for DrawW.
	sw interface{ PowerW() float64 }
	crossTier

	// cpuIdx and memIdx index the children's compute and memory roots
	// (nil under ScanLinear, where nothing maintains them).
	cpuIdx, memIdx *placementIndex

	// admit and evict hold the batch engines' reused partition state;
	// fo is the reusable fan-out scratch of the tier's waves (see
	// tierbatch.go).
	admit admitScratch
	evict evictScratch
	fo    fanout
}

// init wires a tier at level lvl (0 pod, 1 row) over its children, its
// own switch and the embedding scheduler, and links each child's roots
// into the tier's indexes.
func (t *tier[C]) init(cfg Config, lvl int, kids []C, sw interface{ PowerW() float64 }, spec tierSpec) {
	t.cfg, t.kids, t.sw = cfg, kids, sw
	t.lvl, t.spec = lvl, spec
	if cfg.Scan == ScanLinear {
		return
	}
	t.cpuIdx = newPlacementIndex(len(kids), t.cpuLeaf)
	t.memIdx = newPlacementIndex(len(kids), t.memLeaf)
	for i, k := range kids {
		cpu, mem := k.indexes()
		cpu.up, cpu.upAt = t.cpuIdx, i
		mem.up, mem.upAt = t.memIdx, i
	}
}

// cpuLeaf refreshes child i's compute leaf: its compute root, ranked
// by its free cores, or by its room while a partition holds room.
func (t *tier[C]) cpuLeaf(i int, nd *node) bool {
	cpu, _ := t.kids[i].indexes()
	r := cpu.root()
	rank := r.sumRank
	if t.admit.roomHeld {
		rank = t.admit.room[i]
	}
	return nd.setRoot(r, rank)
}

// memLeaf refreshes child i's memory leaf: its memory root, ranked by
// its free bytes.
func (t *tier[C]) memLeaf(i int, nd *node) bool {
	_, mem := t.kids[i].indexes()
	r := mem.root()
	return nd.setRoot(r, r.sumRank)
}

// wave runs fn over the active children on the tier's fan-out, with
// their links into the tier's indexes held: no two workers write one
// index. After the join the held leaves are touched serially, in one
// flush per index. Every fan-out wave, pod and row, runs through here
// or, for the row's flat (pod, rack) wave, through the same hold,
// release and flush.
func (t *tier[C]) wave(workers int, active []int, fn func(i int)) {
	for _, k := range active {
		holdUp(t.kids[k])
	}
	t.fo.each(workers, len(active), fn)
	for _, k := range active {
		releaseUp(t.kids[k])
	}
	t.flush()
}

// holdUp and releaseUp hold and release both of a child's links into
// its tier's indexes; flush touches the leaves its released children
// queued.
func holdUp(c child) {
	cpu, mem := c.indexes()
	cpu.hold()
	mem.hold()
}

func releaseUp(c child) {
	cpu, mem := c.indexes()
	cpu.release()
	mem.release()
}

func (t *tier[C]) flush() {
	t.cpuIdx.flush()
	t.memIdx.flush()
}

// kidOf is the index of the child holding l.
func (t *tier[C]) kidOf(l topo.RowBrickID) int {
	if t.lvl == 0 {
		return l.Rack
	}
	return l.Pod
}

// rackOf is the rack controller holding l.
func (t *tier[C]) rackOf(l topo.RowBrickID) *Controller {
	return t.kids[t.kidOf(l)].rackAt(l.Rack)
}

// stampKids records an attachment's endpoint children at this level.
func (t *tier[C]) stampKids(att *Attachment, cpuKid, memKid int) {
	if t.lvl == 0 {
		att.CPURack, att.MemRack = cpuKid, memKid
	} else {
		att.CPUPod, att.MemPod = cpuKid, memKid
	}
}

// badLoc describes why l names no compute location of this tier, or
// returns "".
func (t *tier[C]) badLoc(l topo.RowBrickID) string {
	n := tierNames[t.lvl]
	k := t.kidOf(l)
	if k < 0 || k >= len(t.kids) {
		return fmt.Sprintf("no %s %d in the %s", n.kid, k, n.tier)
	}
	if !t.kids[k].hasRack(l.Rack) {
		return fmt.Sprintf("no rack %d in pod %d", l.Rack, l.Pod)
	}
	return ""
}

// noGapErr is the local failure of an attach the doom screen skipped.
func (t *tier[C]) noGapErr(cpu topo.RowBrickID, size brick.Bytes) error {
	if t.lvl == 0 {
		return fmt.Errorf("sdm: no memory brick with %v contiguous free and a spare port", size)
	}
	return fmt.Errorf("sdm: no memory brick in pod %d with %v contiguous free and a spare port", cpu.Pod, size)
}

// spillErr is an attach that failed both child-locally and across the
// tier.
func (t *tier[C]) spillErr(owner string, localErr, err error) error {
	n := tierNames[t.lvl]
	return fmt.Errorf("sdm: %s attach for %q failed %s-locally (%v) and %s: %w", n.tier, owner, n.kid, localErr, n.cross, err)
}

// Stats returns the tier's cumulative request/failure counters and how
// many attachments spilled across it (circuit or packet).
func (t *tier[C]) Stats() (requests, failures, spills uint64) {
	return t.requests, t.failures, t.spills
}

// pickCompute applies the placement policy to child choice for a
// compute reservation, never returning exclude. It returns the child
// and the brick its confirming pick found there. Indexed choice is a
// descent of the compute index for the next candidate — in index order
// (power-aware, first-fit) or in (most free cores, lowest index) order
// (spread) — confirmed by the child's pick; a refused candidate resumes
// the descent after it. Under ScanLinear every child runs a full pick
// per probe — the pre-index nested scan.
func (t *tier[C]) pickCompute(vcpus int, localMem brick.Bytes, exclude int, cached bool) (int, topo.RowBrickID, bool) {
	k, found := -1, false
	var loc topo.RowBrickID
	if t.cfg.Scan == ScanLinear {
		k, loc, found = t.pickComputeLinear(vcpus, localMem, exclude, cached)
	} else {
		minA, minB := int64(vcpus), int64(localMem)
		rank := int64(math.MaxInt64)
		for !found {
			if t.cfg.Policy == PolicySpread {
				k, rank = t.cpuIdx.spreadNext(minA, minB, exclude, rank, k)
			} else {
				k = t.cpuIdx.firstFit(k+1, minA, minB, exclude)
			}
			if k < 0 {
				break
			}
			loc, found = t.kids[k].pickComputeIn(vcpus, localMem, cached)
		}
	}
	if found {
		if t.lvl == 0 {
			loc.Rack = k
		} else {
			loc.Pod = k
		}
	}
	return k, loc, found
}

// pickComputeLinear is pickCompute's ScanLinear loop.
func (t *tier[C]) pickComputeLinear(vcpus int, localMem brick.Bytes, exclude int, cached bool) (int, topo.RowBrickID, bool) {
	best, found := -1, false
	var loc topo.RowBrickID
	if t.cfg.Policy == PolicySpread {
		bestFree := int64(-1)
		for i, k := range t.kids {
			if i == exclude {
				continue
			}
			if l, ok := k.pickComputeIn(vcpus, localMem, cached); ok {
				if free := t.freeOf(i); free > bestFree {
					best, bestFree, loc, found = i, free, l, true
				}
			}
		}
		return best, loc, found
	}
	// Power-aware and first-fit pack children in index order.
	for i, k := range t.kids {
		if i == exclude {
			continue
		}
		if l, ok := k.pickComputeIn(vcpus, localMem, cached); ok {
			return i, l, true
		}
	}
	return -1, loc, false
}

// pickMemory applies the placement policy to the child choice of a
// spill, never choosing the VM's home child, and returns the memory end
// the chosen child's pick found; same structure as pickCompute, ranked
// by free bytes.
func (t *tier[C]) pickMemory(size brick.Bytes, home int) (memPick, bool) {
	if t.cfg.Scan == ScanLinear {
		return t.pickMemoryLinear(size, home)
	}
	minA := int64(size)
	k, rank := -1, int64(math.MaxInt64)
	for {
		if t.cfg.Policy == PolicySpread {
			k, rank = t.memIdx.spreadNext(minA, 1, home, rank, k)
		} else {
			k = t.memIdx.firstFit(k+1, minA, 1, home)
		}
		if k < 0 {
			return memPick{}, false
		}
		if pick, ok := t.kids[k].pickMem(size, k); ok {
			return pick, true
		}
	}
}

// pickMemoryLinear is pickMemory's ScanLinear loop.
func (t *tier[C]) pickMemoryLinear(size brick.Bytes, home int) (memPick, bool) {
	best, found := -1, false
	var bestFree brick.Bytes
	for i, k := range t.kids {
		if i == home || !k.fitsMemory(size) {
			continue
		}
		if t.cfg.Policy != PolicySpread {
			best, found = i, true
			break
		}
		if free := k.freeMemory(); !found || free > bestFree {
			best, bestFree, found = i, free, true
		}
	}
	if !found {
		return memPick{}, false
	}
	return t.kids[best].pickMem(size, best)
}

// reserve places a compute reservation tier-wide: the policy picks a
// child, the child's confirming pick names the brick, and the claim
// lands there — one descent per tier for the winning brick. cached is
// set only by a batch partition (see claim).
func (t *tier[C]) reserve(vcpus int, localMem brick.Bytes, cached bool) (topo.RowBrickID, sim.Duration, error) {
	t.requests++
	k, loc, ok := t.pickCompute(vcpus, localMem, -1, cached)
	if !ok {
		t.failures++
		n := tierNames[t.lvl]
		return topo.RowBrickID{}, 0, fmt.Errorf("sdm: no %s in the %d-%s %s with %d free cores and %v local memory", n.kid, len(t.kids), n.kid, n.tier, vcpus, localMem)
	}
	lat, err := t.claim(k, loc, vcpus, localMem, cached)
	if err != nil {
		return topo.RowBrickID{}, 0, err
	}
	return loc, lat, nil
}

// claim reserves the compute at loc in child k. Under a batch partition
// (cached) the racks below defer their index refreshes and the tier's
// leaves carry roots that lag behind the claims; admission only
// consumes, so they over-estimate and stay sound, and spread ranks the
// children by room — exact arithmetic — instead.
func (t *tier[C]) claim(k int, loc topo.RowBrickID, vcpus int, localMem brick.Bytes, cached bool) (sim.Duration, error) {
	sc := &t.admit
	took := cached && t.cfg.Policy == PolicySpread && !sc.roomHeld
	if took {
		// The first claim at this tier in the partition: nothing below
		// has deferred anything yet, so the children's answers are exact.
		sc.room = sc.room[:0]
		for i, c := range t.kids {
			var free int64
			if t.cpuIdx != nil {
				free = t.cpuIdx.leaf(i).sumRank // the child's current root
			} else {
				free = c.freeCores()
			}
			sc.room = append(sc.room, free)
		}
		sc.roomHeld = true
	}
	lat, err := t.kids[k].claimIn(loc, vcpus, localMem, cached)
	if err != nil {
		t.failures++
		if took {
			t.dropRoom()
		}
		return 0, err
	}
	if sc.roomHeld {
		sc.room[k] -= int64(vcpus)
		if t.cpuIdx != nil {
			t.cpuIdx.rerank(k, sc.room[k])
		}
	}
	return lat, nil
}

// dropRoom ends a partition's hold on room: the compute leaves rank by
// the children's own free cores again.
func (t *tier[C]) dropRoom() {
	if !t.admit.roomHeld {
		return
	}
	t.admit.roomHeld = false
	if t.cpuIdx == nil {
		return
	}
	for k := range t.kids {
		if nd := t.cpuIdx.leaf(k); nd.maxRank != nd.sumRank {
			t.cpuIdx.rerank(k, nd.sumRank)
		}
	}
}

// freeOf is child i's free cores in the ScanLinear loop: room while a
// partition holds it, the child's own answer otherwise.
func (t *tier[C]) freeOf(i int) int64 {
	if t.admit.roomHeld {
		return t.admit.room[i]
	}
	return t.kids[i].freeCores()
}

// releaseAt returns cores and local memory to a brick.
func (t *tier[C]) releaseAt(id topo.RowBrickID, vcpus int, localMem brick.Bytes) error {
	k := t.kidOf(id)
	if k < 0 || k >= len(t.kids) {
		n := tierNames[t.lvl]
		return fmt.Errorf("sdm: no %s %d in the %s", n.kid, k, n.tier)
	}
	return t.kids[k].releaseIn(id, vcpus, localMem)
}

// attach realizes one memory attachment tier-wide: child-local first
// (with the child's own cascade), then the spill across this tier's
// switch, then this tier's packet fallback.
func (t *tier[C]) attach(owner string, cpu topo.RowBrickID, size brick.Bytes) (*Attachment, sim.Duration, error) {
	t.requests++
	if bad := t.badLoc(cpu); bad != "" {
		t.failures++
		return nil, 0, fmt.Errorf("sdm: %s", bad)
	}
	k := t.kidOf(cpu)
	kid := t.kids[k]
	var att *Attachment
	var lat sim.Duration
	var localErr error
	if t.memIdx != nil && t.memIdx.leaf(k).maxA() < int64(size) {
		// No brick anywhere in the child has a contiguous gap for the
		// request (the max at its leaf is exact), so neither its local attempt nor
		// anything it could cascade into can succeed: skip the doomed
		// plan. Counters mirror the attempt; the matching error text is
		// materialized only if the spill fails too, keeping the hot
		// spill path allocation-free.
		kid.doom(cpu)
	} else {
		att, lat, localErr = kid.attachIn(owner, cpu, size)
		if localErr == nil {
			t.stampKids(att, k, k)
			return att, lat, nil
		}
	}
	att, lat, err := t.spillSite(cpu).attach(owner, cpu, size, false)
	if err != nil {
		if localErr == nil {
			localErr = t.noGapErr(cpu, size)
		}
		t.failures++
		return nil, 0, t.spillErr(owner, localErr, err)
	}
	t.spills++
	return att, lat, nil
}

// spillSite is the attach site of a spill across this tier from cpu.
func (t *tier[C]) spillSite(cpu topo.RowBrickID) attachSite {
	r := t.rackOf(cpu)
	return attachSite{rack: r, tier: &t.crossTier, kid: t.kidOf(cpu), hostTab: r.crossHosts[t.lvl]}
}

// pickSpill selects the memory end of a spill from child home: the
// child by the tier's policy, the brick by that child's. exhausted
// marks a failure the packet fallback may absorb.
func (t *tier[C]) pickSpill(size brick.Bytes, home int) (memPick, bool, error) {
	pick, ok := t.pickMemory(size, home)
	if !ok {
		n := tierNames[t.lvl]
		return memPick{}, true, fmt.Errorf("sdm: no %s in the %s with %v contiguous free and a spare port", n.kid, n.tier, size)
	}
	return pick, false, nil
}

// DetachRemoteMemory tears an attachment down: cross ones through the
// site of the tier that owns them, child-local ones through their
// child (the routing lives on the attachment, so any entry point
// works).
func (t *tier[C]) DetachRemoteMemory(att *Attachment) (sim.Duration, error) {
	if att.cross != nil {
		return att.cross.spec.crossSite(att).detach(att, nil)
	}
	k := t.kidOf(att.cpuAt())
	if k < 0 || k >= len(t.kids) {
		n := tierNames[t.lvl]
		return 0, fmt.Errorf("sdm: attachment names %s %d outside the %s", n.kid, k, n.tier)
	}
	return t.kids[k].DetachRemoteMemory(att)
}

// crossSite is the detach site of an attachment this tier owns: both
// endpoint racks, the switch tier between them, the compute rack's
// host table for this level, and this tier's walk order and counters.
func (t *tier[C]) crossSite(att *Attachment) detachSite {
	cpu, mem := att.cpuAt(), att.memAt()
	cpuRack := t.rackOf(cpu)
	return detachSite{
		cpuRack: cpuRack, memRack: t.rackOf(mem),
		t: t.spec.crossLink(cpu, mem), hostTab: cpuRack.crossHosts[t.lvl],
		order: &t.cross, stats: &t.tally, noun: tierNames[t.lvl].site,
	}
}

// Attachments returns the live attachments of an owner across the tier
// (a copy, in attach order — an owner's attachments all register on
// its compute rack), or nil.
func (t *tier[C]) Attachments(owner string) []*Attachment {
	return t.AppendAttachments(nil, owner)
}

// AppendAttachments appends the owner's live attachments across the
// tier to dst and returns the extended slice — the allocation-free
// variant of Attachments.
func (t *tier[C]) AppendAttachments(dst []*Attachment, owner string) []*Attachment {
	for _, k := range t.kids {
		if out := k.AppendAttachments(dst, owner); len(out) > len(dst) {
			return out
		}
	}
	return dst
}

// PowerOffIdle sweeps every child and returns the total bricks
// stopped.
func (t *tier[C]) PowerOffIdle() int {
	n := 0
	for _, k := range t.kids {
		n += k.PowerOffIdle()
	}
	return n
}

// PowerOnAll powers every brick in the tier up.
func (t *tier[C]) PowerOnAll() {
	for _, k := range t.kids {
		k.PowerOnAll()
	}
}

// Census returns the power census for one brick kind tier-wide: the
// census at the tier's compute or memory root, or a walk over the
// children (accelerators, which no index covers, and ScanLinear).
func (t *tier[C]) Census(kind topo.BrickKind) PowerCensus {
	switch {
	case kind == topo.KindCompute && t.cpuIdx != nil:
		return t.cpuIdx.census()
	case kind == topo.KindMemory && t.memIdx != nil:
		return t.memIdx.census()
	}
	var pc PowerCensus
	for _, k := range t.kids {
		c := k.Census(kind)
		pc.Off += c.Off
		pc.Idle += c.Idle
		pc.Active += c.Active
	}
	return pc
}

// freeCores is the tier's free cores: its compute root's rank sum, or
// the children's sum under ScanLinear.
func (t *tier[C]) freeCores() int64 {
	if t.cpuIdx != nil {
		return t.cpuIdx.rankSum()
	}
	var n int64
	for _, k := range t.kids {
		n += k.freeCores()
	}
	return n
}

// freeMemory is the tier's free pooled bytes, like freeCores.
func (t *tier[C]) freeMemory() brick.Bytes {
	if t.memIdx != nil {
		return brick.Bytes(t.memIdx.rankSum())
	}
	var n brick.Bytes
	for _, k := range t.kids {
		n += k.freeMemory()
	}
	return n
}

// indexes are the tier's own placement indexes, its roots' leaves in
// the tier above.
func (t *tier[C]) indexes() (cpu, mem *placementIndex) { return t.cpuIdx, t.memIdx }

// DrawW returns the tier's electrical draw: every child plus the
// tier's own switch.
func (t *tier[C]) DrawW(profiles map[topo.BrickKind]brick.PowerProfile) float64 {
	w := t.sw.PowerW()
	for _, k := range t.kids {
		w += k.DrawW(profiles)
	}
	return w
}

// cpuAt is an attachment's compute brick, addressed row-wide; memAt
// is its memory end's rack.
func (a *Attachment) cpuAt() topo.RowBrickID {
	return topo.RowBrickID{Pod: a.CPUPod, Rack: a.CPURack, Brick: a.CPU}
}

func (a *Attachment) memAt() topo.RowBrickID {
	return topo.RowBrickID{Pod: a.MemPod, Rack: a.MemRack}
}

// The rack Controller's side of the child contract: thin views of its
// indexes and exported answers.

func (c *Controller) indexes() (cpu, mem *placementIndex) { return c.cpuIdx, c.memIdx }
func (c *Controller) freeCores() int64                    { return int64(c.FreeCores()) }
func (c *Controller) freeMemory() brick.Bytes             { return c.FreeMemory() }
func (c *Controller) pickComputeIn(vcpus int, localMem brick.Bytes, cached bool) (topo.RowBrickID, bool) {
	var id topo.BrickID
	var ok bool
	if cached && c.batch != nil && c.batch.active {
		id, ok = c.batchPickCompute(vcpus, localMem)
	} else {
		id, ok = c.pickCompute(vcpus, localMem)
	}
	return topo.RowBrickID{Brick: id}, ok
}
func (c *Controller) fitsMemory(size brick.Bytes) bool {
	_, ok := c.pickMemory(size)
	return ok
}
func (c *Controller) pickMem(size brick.Bytes, self int) (memPick, bool) {
	id, ok := c.pickMemory(size)
	return memPick{rack: c, at: topo.RowBrickID{Rack: self, Brick: id}}, ok
}
func (c *Controller) rackAt(int) *Controller { return c }
func (c *Controller) hasRack(int) bool       { return true }

// claimIn is the rack end of a tier's claim. A partition's first claim
// on the rack opens batch mode, so the rest of the partition reads the
// rack through its pick cache and deferred leaf refreshes; the rack's
// attach shard, which every claimed rack runs, flushes them with its
// own (placeBatch).
func (c *Controller) claimIn(loc topo.RowBrickID, vcpus int, localMem brick.Bytes, cached bool) (sim.Duration, error) {
	c.requests++
	if vcpus <= 0 {
		c.failures++
		return 0, fmt.Errorf("sdm: reserve of %d vcpus", vcpus)
	}
	began := cached && (c.batch == nil || !c.batch.active)
	if began {
		c.beginBatch()
	}
	_, lat, err := c.claimCompute(loc.Brick, vcpus, localMem)
	if err != nil && began {
		c.endBatch()
	}
	return lat, err
}
func (c *Controller) releaseIn(id topo.RowBrickID, vcpus int, localMem brick.Bytes) error {
	return c.ReleaseCompute(id.Brick, vcpus, localMem)
}
func (c *Controller) attachIn(owner string, cpu topo.RowBrickID, size brick.Bytes) (*Attachment, sim.Duration, error) {
	return c.rackSite().attach(owner, cpu, size, false)
}
func (c *Controller) doom(topo.RowBrickID) {
	c.requests++
	c.failures++
}
func (c *Controller) beginAdmit() { c.startBootLog() }
func (c *Controller) endAdmit()   { c.stopBootLog() }
func (c *Controller) abortAdmit() { c.rollbackBoots() }

// rollbackEvict replays the rack's teardown journal in reverse; the
// journal starts with the rack's shard (releaseShard).
func (c *Controller) rollbackEvict(cause error) error {
	for i := len(c.undoLog) - 1; i >= 0; i-- {
		if err := c.undoLog[i].undoDetach(); err != nil {
			cause = fmt.Errorf("%w (and rollback of %q failed: %v)", cause, c.undoLog[i].att.Owner, err)
		}
	}
	c.undoLog = c.undoLog[:0]
	return cause
}
