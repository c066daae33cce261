package sdm

// Batched group-commit admission, rack tier. A scale-up burst admits
// many VM-shaped consumers at once; serving them one Reserve/Attach
// call at a time repays the full scheduler overhead — a policy descent
// per pick and an index-leaf refresh per touched brick per op — for
// every single request. PlaceBatch amortizes all of it across the
// batch:
//
//   - Picks are cached: packing policies (power-aware, first-fit)
//     re-select the same brick for identical back-to-back requirements,
//     so the planner remembers the last pick and revalidates it against
//     live brick state in O(1). The cache is sound because admission
//     only consumes capacity: while no brick changes power state and
//     nothing rolls back, every brick ahead of the cached one in the
//     policy order keeps failing the same requirement it already
//     failed, so the cached brick stays the policy's answer for as long
//     as it still fits. Any power-on or rollback invalidates the cache,
//     and the spread policy (whose ranking shifts on every allocation)
//     never uses it.
//   - Index refreshes are deferred and merged: ops mark touched bricks
//     in a dirty set instead of re-walking the tree per mutation; dirty
//     leaves are flushed only when a fresh descent actually needs the
//     tree (a pick-cache miss) and once more at batch end — one refresh
//     per touched brick instead of one per op.
//   - The attach sequence commits inline, with explicit reverse-order
//     releases instead of one closure per step, so a burst allocates no
//     plan machinery.
//
// The compute claim (claimCompute) and the attach (attachSite.attach,
// at the end of this file) are the same bodies ReserveCompute and
// AttachRemoteMemory run — a batch only adds the pick cache and the
// deferred index refreshes. Selection is byte-identical to the
// per-request path: cache hits return what a fresh descent would return
// (the invariant above), and cache misses flush the dirty leaves first
// so the descent runs on an exact tree. A rack's PlaceBatch therefore
// reproduces the sequential ReserveCompute + AttachRemoteMemory results
// bit for bit. The attach body serves every tier: the site it runs at
// (rackSite here, a tier's spillSite for a spill across a pod or row
// switch) supplies the memory pick, the circuit's switch and the host
// table, as a detachSite does for the one teardown body. Under a pod or row the tier's
// partition claims the compute through the same planner (claimIn), in
// request order, and the rack wave only attaches (admitOne).

import (
	"fmt"

	"repro/internal/brick"
	"repro/internal/optical"
	"repro/internal/sim"
	"repro/internal/tgl"
	"repro/internal/topo"
)

// AdmitRequest is one admission of a VM-shaped consumer in a batch:
// a compute reservation (vCPUs plus brick-local memory) and/or one
// remote-memory attachment.
type AdmitRequest struct {
	// Owner tags every resource the admission reserves.
	Owner string
	// VCPUs is the compute reservation; 0 marks an attach-only request
	// (a scale-up of an already-placed VM) whose compute brick is CPU.
	VCPUs int
	// LocalMem is the brick-local memory reserved with the cores.
	LocalMem brick.Bytes
	// Remote is the remote attachment size; 0 admits compute only.
	Remote brick.Bytes
	// CPU names the compute brick of an attach-only request.
	CPU topo.BrickID
	// Rack names CPU's rack at the pod tier; rack controllers ignore it.
	Rack int
	// Pod names CPU's pod at the row tier; lower tiers ignore it.
	Pod int

	// claimed marks a compute part a tier's partition already reserved
	// at (Pod, Rack, CPU), at control-plane latency claimLat: the
	// request routes by location and its rack only attaches.
	claimed  bool
	claimLat sim.Duration
}

// AdmitResult is one admission's outcome.
type AdmitResult struct {
	// CPU is the compute brick serving the request (the picked brick,
	// or the request's own for attach-only admissions).
	CPU topo.BrickID
	// Rack is CPU's pod rack index (0 on a rack controller).
	Rack int
	// Pod is CPU's row pod index (0 below the row tier).
	Pod int
	// Att is the remote attachment, nil when Remote was 0.
	Att *Attachment
	// ComputeLat and AttachLat are the orchestration latencies of the
	// two parts, with the same accounting as ReserveCompute and
	// AttachRemoteMemory.
	ComputeLat, AttachLat sim.Duration
	// Err marks a failed request; its own steps have been rolled back.
	Err error

	// computeDone records a committed compute reservation (rollback
	// needs it even when the attach part is still pending cross-rack).
	computeDone bool
	// needSpill and localErr mark a pod-mode leftover: the compute part
	// (if any) is committed, but the rack could not serve the remote
	// part locally and the pod tier must spill it cross-rack.
	needSpill bool
	localErr  error
}

// pickCache remembers the last placement descent's answer so identical
// back-to-back requirements skip the tree entirely.
type pickCache struct {
	valid      bool
	pos        int
	minA, minB int64
}

// batchState is a controller's batch-planning context, allocated once
// and reused across batches.
type batchState struct {
	active                 bool
	dirtyCPU, dirtyMem     []int
	inDirtyCPU, inDirtyMem []bool
	cpuCache, memCache     pickCache
}

// invalidateCaches drops both pick caches — required whenever batch
// execution returns capacity (a rollback) or flips a power state, the
// two events that break the caches' monotone-consumption invariant. A
// controller that never batched has no caches, so nil is a no-op.
func (b *batchState) invalidateCaches() {
	if b != nil {
		b.cpuCache.valid = false
		b.memCache.valid = false
	}
}

// startBootLog begins recording the bricks this controller powers on
// during an admission, so an aborting batch can power its own boots
// back down and restore the pre-batch power census exactly. Recording
// covers both the batch planner and the sequential entry points the pod
// tier's merge phase routes through.
func (c *Controller) startBootLog() {
	c.bootLogging = true
	c.bootCPULog = c.bootCPULog[:0]
	c.bootMemLog = c.bootMemLog[:0]
}

// stopBootLog stops recording; the log stays readable for rollback.
func (c *Controller) stopBootLog() { c.bootLogging = false }

func (c *Controller) logBootCPU(id topo.BrickID) {
	if c.bootLogging {
		c.bootCPULog = append(c.bootCPULog, id)
	}
}

func (c *Controller) logBootMem(id topo.BrickID) {
	if c.bootLogging {
		c.bootMemLog = append(c.bootMemLog, id)
	}
}

// rollbackBoots powers down every brick the logged admission booted
// that ended up unused after the teardown — a batch that rolls back
// leaves the power census exactly as it found it. (The boot latency
// stays spent, matching the lifecycle engine's failed-plan contract.)
func (c *Controller) rollbackBoots() {
	for i := len(c.bootCPULog) - 1; i >= 0; i-- {
		id := c.bootCPULog[i]
		if n := c.compute(id); n.Brick.State() != brick.PowerOff && n.Brick.IsIdle() {
			n.Brick.PowerDown()
			c.touchCompute(id)
		}
	}
	for i := len(c.bootMemLog) - 1; i >= 0; i-- {
		id := c.bootMemLog[i]
		if m := c.memory(id); m.State() != brick.PowerOff && m.IsIdle() {
			m.PowerDown()
			c.touchMemory(id)
		}
	}
	c.bootCPULog = c.bootCPULog[:0]
	c.bootMemLog = c.bootMemLog[:0]
}

// beginBatch opens batch mode: index touches divert to the dirty sets
// and picks may be served from the caches.
func (c *Controller) beginBatch() {
	if c.batch == nil {
		c.batch = &batchState{
			inDirtyCPU: make([]bool, len(c.computeOrder)),
			inDirtyMem: make([]bool, len(c.memoryOrder)),
		}
	}
	c.batch.active = true
	c.batch.invalidateCaches()
}

// endBatch group-commits the deferred index maintenance — one leaf
// refresh per touched brick — and closes batch mode.
func (c *Controller) endBatch() {
	c.flushDirtyCPU()
	c.flushDirtyMem()
	c.batch.active = false
}

// flushDirtyCPU refreshes every dirty compute leaf once, recomputing
// each affected ancestor once (touchMany) rather than walking one root
// path per leaf.
func (c *Controller) flushDirtyCPU() {
	b := c.batch
	for _, pos := range b.dirtyCPU {
		b.inDirtyCPU[pos] = false
	}
	c.cpuIdx.touchMany(b.dirtyCPU)
	b.dirtyCPU = b.dirtyCPU[:0]
}

// flushDirtyMem refreshes every dirty memory leaf once, recomputing
// each affected ancestor once (touchMany) rather than walking one root
// path per leaf.
func (c *Controller) flushDirtyMem() {
	b := c.batch
	for _, pos := range b.dirtyMem {
		b.inDirtyMem[pos] = false
	}
	c.memIdx.touchMany(b.dirtyMem)
	b.dirtyMem = b.dirtyMem[:0]
}

// batchPickCompute is pickCompute under batch planning: cache hit with
// O(1) live revalidation, or dirty-leaf flush plus an exact descent.
func (c *Controller) batchPickCompute(vcpus int, localMem brick.Bytes) (topo.BrickID, bool) {
	if c.cfg.Scan == ScanLinear {
		return c.pickComputeLinear(vcpus, localMem)
	}
	b := c.batch
	minA, minB := int64(vcpus), int64(localMem)
	if b.cpuCache.valid && b.cpuCache.minA == minA && b.cpuCache.minB == minB {
		if s := c.computeStat(b.cpuCache.pos); s.fitA >= minA && s.fitB >= minB {
			return c.computeOrder[b.cpuCache.pos], true
		}
	}
	c.flushDirtyCPU()
	id, ok := c.pickComputeIndexed(vcpus, localMem, -1)
	if ok && c.cfg.Policy != PolicySpread {
		b.cpuCache = pickCache{valid: true, pos: c.cpuPos(id), minA: minA, minB: minB}
	} else {
		b.cpuCache.valid = false
	}
	return id, ok
}

// batchPickMemory is pickMemory under batch planning.
func (c *Controller) batchPickMemory(size brick.Bytes) (topo.BrickID, bool) {
	if c.cfg.Scan == ScanLinear {
		return c.pickMemoryLinear(size)
	}
	b := c.batch
	minA, minB := int64(size), int64(1)
	if b.memCache.valid && b.memCache.minA == minA && b.memCache.minB == minB {
		if s := c.memoryStat(b.memCache.pos); s.fitA >= minA && s.fitB >= minB {
			return c.memoryOrder[b.memCache.pos], true
		}
	}
	c.flushDirtyMem()
	id, ok := c.pickMemoryIndexed(size)
	if ok && c.cfg.Policy != PolicySpread {
		b.memCache = pickCache{valid: true, pos: c.memPos(id), minA: minA, minB: minB}
	} else {
		b.memCache.valid = false
	}
	return id, ok
}

// PlaceBatch plans and commits a batch of admissions against this rack:
// per request a compute pick, local carve and remote attachment, served
// through the batch planner (cached picks, merged commits, one index
// refresh per touched brick). Requests are served in order; a request
// that cannot be placed has its own steps rolled back and its Err set,
// and later requests still run. out must have len(reqs) slots. Use
// RollbackBatch to undo the whole batch — e.g. when admission is
// all-or-nothing and one request failing voids the rest.
func (c *Controller) PlaceBatch(reqs []AdmitRequest, out []AdmitResult) {
	c.startBootLog()
	c.placeBatch(reqs, out, false)
	c.stopBootLog()
}

// placeBatch is PlaceBatch with the pod tier's leftover contract: in
// pod mode a request whose remote part cannot be served rack-locally
// keeps its compute reservation and is marked needSpill for the pod
// tier to route cross-rack, instead of failing outright.
func (c *Controller) placeBatch(reqs []AdmitRequest, out []AdmitResult, pod bool) {
	c.beginBatch()
	for i := range reqs {
		c.admitOne(&reqs[i], &out[i], pod)
	}
	c.endBatch()
}

// admitOne serves one request of a batch; a claimed request only
// attaches.
func (c *Controller) admitOne(req *AdmitRequest, res *AdmitResult, pod bool) {
	*res = AdmitResult{}
	cpu := req.CPU
	if req.claimed {
		res.CPU, res.ComputeLat, res.computeDone = cpu, req.claimLat, true
	} else if req.VCPUs > 0 {
		id, lat, err := c.reserveCompute(req.VCPUs, req.LocalMem, true)
		if err != nil {
			res.Err = err
			return
		}
		cpu, res.CPU, res.ComputeLat, res.computeDone = id, id, lat, true
	} else {
		if req.Remote == 0 {
			res.Err = fmt.Errorf("sdm: empty admission for %q: no vCPUs and no remote memory", req.Owner)
			return
		}
		if c.cpuPos(cpu) < 0 {
			res.Err = fmt.Errorf("sdm: no compute brick %v", cpu)
			return
		}
		res.CPU = cpu
	}
	if req.Remote == 0 {
		return
	}
	if pod && c.cfg.Scan != ScanLinear && c.MaxMemoryGap() < req.Remote {
		// No rack-local brick can hold the segment (the dirty-deferred
		// root only over-estimates, so a failing gate is exact): skip
		// the doomed local plan, mirror the counters, and hand the
		// request to the pod tier's spill path.
		c.requests++
		c.failures++
		res.needSpill = true
		return
	}
	att, lat, err := c.rackSite().attach(req.Owner, topo.RowBrickID{Brick: cpu}, req.Remote, true)
	if err != nil {
		if pod {
			res.needSpill = true
			res.localErr = err
			return
		}
		if res.computeDone {
			c.releaseComputeBatch(res.CPU, req.VCPUs, req.LocalMem)
			res.computeDone = false
		}
		res.Err = err
		return
	}
	res.Att, res.AttachLat = att, lat
}

// releaseComputeBatch undoes one batch compute reservation in place.
func (c *Controller) releaseComputeBatch(id topo.BrickID, vcpus int, localMem brick.Bytes) {
	node := c.compute(id)
	node.Brick.FreeCoresBack(vcpus)
	if localMem > 0 {
		node.Brick.FreeLocal(localMem)
	}
	c.touchCompute(id)
	c.batch.invalidateCaches()
}

// RollbackBatch undoes every committed admission of a PlaceBatch call
// in reverse request order — attachments detach, compute reservations
// release — restoring brick state and, with it, the placement indexes
// to their pre-batch answers. The first teardown error is returned
// (teardown of fresh admissions cannot ordinarily fail).
func (c *Controller) RollbackBatch(reqs []AdmitRequest, out []AdmitResult) error {
	var first error
	for i := len(out) - 1; i >= 0; i-- {
		if out[i].Att != nil {
			if _, err := c.DetachRemoteMemory(out[i].Att); err != nil && first == nil {
				first = err
			}
			out[i].Att = nil
		}
		if out[i].computeDone {
			if err := c.ReleaseCompute(out[i].CPU, reqs[i].VCPUs, reqs[i].LocalMem); err != nil && first == nil {
				first = err
			}
			out[i].computeDone = false
		}
	}
	c.rollbackBoots()
	return first
}

// attachSite locates one attach, as detachSite locates a teardown. It
// names the compute rack; the tier a spill crosses (nil for a
// rack-local attach), whose crossTier holds the walk order, and the
// VM's child at that tier; the host table the circuit registers in on
// the compute rack (circuitHosts, or crossHosts at the tier's level);
// and the counters of a rack-local attach. A spill site has none: a
// tier counts its attach requests where it counts its spills.
type attachSite struct {
	rack    *Controller
	tier    *crossTier
	kid     int
	hostTab [][]*Attachment
	stats   *tally
}

// rackSite is the attach site of c's rack-local attachments.
func (c *Controller) rackSite() attachSite {
	return attachSite{rack: c, hostTab: c.circuitHosts, stats: &c.tally}
}

// memPick is a memory end chosen for an attach: the brick, addressed
// row-wide, and the controller owning it.
type memPick struct {
	rack *Controller
	at   topo.RowBrickID
}

// attach is the one circuit attach body, at every tier: CPU-side port,
// memory selection and power-up, segment carve, memory-side port,
// circuit (with quarantine-and-retry fault recovery), TGL window,
// registration — executed inline as one merged commit with explicit
// reverse-order unwinding, cascading into the packet fallback when
// circuit resources are exhausted. cached serves a rack-local memory
// pick from the batch pick cache; only placeBatch sets it.
func (st attachSite) attach(owner string, cpu topo.RowBrickID, size brick.Bytes, cached bool) (*Attachment, sim.Duration, error) {
	c := st.rack
	if st.stats != nil {
		st.stats.requests++
	}
	// fail concludes a failure after the completed steps are unwound.
	// The pick caches drop (the unwind returned capacity). When circuit
	// resources ran out — a port, a memory brick with a spare port, an
	// uplink — rather than a fault or a full window table, the packet
	// fallback may absorb it, on top of the latency already spent (a
	// brick boot stays spent).
	fail := func(lat sim.Duration, cascade bool, err error) (*Attachment, sim.Duration, error) {
		c.batch.invalidateCaches()
		if cascade && c.cfg.PacketFallback {
			if att, fl, ferr := st.packet(owner, cpu, size); ferr == nil {
				return att, lat + fl, nil
			}
		}
		if st.stats != nil {
			st.stats.failures++
		}
		return nil, 0, err
	}
	cpuOrd := c.cpuPos(cpu.Brick)
	if cpuOrd < 0 {
		return fail(0, false, fmt.Errorf("sdm: no compute brick %v", cpu.Brick))
	}
	node := c.computes[cpuOrd]
	if size == 0 {
		return fail(0, false, fmt.Errorf("sdm: zero-size attachment"))
	}
	lat := c.cfg.DecisionLatency
	var mem memPick
	// Touch both endpoints on every exit, exactly once.
	defer func() {
		c.touchCompute(cpu.Brick)
		if mem.rack != nil {
			mem.rack.touchMemory(mem.at.Brick)
		}
	}()
	// The CPU-side port is the scarcest resource: claim it before any
	// memory brick is selected (and possibly powered on), so that port
	// exhaustion falls back to packet mode without wasted boots.
	cpuPort, err := node.Brick.Ports.Acquire()
	if err != nil {
		return fail(lat, true, err)
	}
	// Memory selection: the rack's own pick, or a spill's child by the
	// tier's policy and the brick by that child's.
	if st.tier == nil {
		var ok bool
		if cached {
			mem.at.Brick, ok = c.batchPickMemory(size)
		} else {
			mem.at.Brick, ok = c.pickMemory(size)
		}
		if !ok {
			node.Brick.Ports.Release(cpuPort)
			return fail(lat, true, fmt.Errorf("sdm: no memory brick with %v contiguous free and a spare port", size))
		}
		mem.rack = c
	} else {
		var cascade bool
		if mem, cascade, err = st.tier.spec.pickSpill(size, st.kid); err != nil {
			node.Brick.Ports.Release(cpuPort)
			return fail(lat, cascade, err)
		}
	}
	m := mem.rack.memory(mem.at.Brick)
	if m.State() == brick.PowerOff {
		m.PowerOn()
		lat += c.cfg.BrickBoot
		if mem.rack.batch != nil {
			mem.rack.batch.memCache.valid = false
		}
		mem.rack.logBootMem(mem.at.Brick)
	}
	// Segment carve.
	seg, err := m.Carve(size, owner)
	if err != nil {
		node.Brick.Ports.Release(cpuPort)
		return fail(lat, false, err)
	}
	// Memory-side port.
	memPort, err := m.Ports.Acquire()
	if err != nil {
		m.Release(seg)
		node.Brick.Ports.Release(cpuPort)
		return fail(lat, true, err)
	}
	// Circuit setup through the rack fabric or the tier's switch. An
	// optical path fault quarantines the failed endpoint and retries
	// through another port; the quarantined port stays withdrawn for the
	// operator, the retry bound covers every port failing, and a fault
	// never cascades. Any other connect error — the switches' uplinks
	// exhausted — does.
	link := c.rackTier()
	if st.tier != nil {
		link = st.tier.spec.crossLink(cpu, mem.at)
	}
	var circuit *optical.Circuit
	maxRetries := node.Brick.Ports.Total() + m.Ports.Total()
	for retry := 0; ; retry++ {
		cc, reconfig, cerr := link.connect(cpuPort, memPort)
		if cerr == nil {
			circuit = cc
			lat += reconfig
			break
		}
		pf := portFault(cerr)
		if pf != nil && retry < maxRetries {
			// A port swaps only once its replacement is held, so the
			// unwind never releases a port the attach does not hold.
			ports, held := node.Brick.Ports, &cpuPort
			if pf.Port != cpuPort {
				ports, held = m.Ports, &memPort
			}
			reacquireErr := ports.Quarantine(*held)
			if reacquireErr == nil {
				var p topo.PortID
				if p, reacquireErr = ports.Acquire(); reacquireErr == nil {
					*held = p
					continue
				}
			}
			cerr = fmt.Errorf("sdm: circuit fault recovery exhausted ports: %w", reacquireErr)
		}
		m.Ports.Release(memPort)
		m.Release(seg)
		node.Brick.Ports.Release(cpuPort)
		return fail(lat, pf == nil, cerr)
	}
	// TGL window push via the SDM Agent.
	window := tgl.Entry{
		Base:       node.nextWindow,
		Size:       uint64(size),
		Dest:       mem.at.Brick,
		DestOffset: uint64(seg.Offset),
		Port:       cpuPort,
	}
	if err := node.Agent.Glue.Attach(window); err != nil {
		if _, derr := link.disconnect(circuit); derr != nil {
			err = fmt.Errorf("sdm: attach failed (%v) and rollback failed: %w", err, derr)
		}
		m.Ports.Release(memPort)
		m.Release(seg)
		node.Brick.Ports.Release(cpuPort)
		return fail(lat, false, err)
	}
	node.nextWindow += uint64(size)
	lat += c.cfg.AgentRTT
	// Registration — final and infallible. The attachment comes from the
	// compute rack's arena, so steady-state churn allocates no objects.
	att := c.newAttachment()
	att.Owner = owner
	att.CPU = cpu.Brick
	att.Segment = seg
	att.Circuit = circuit
	att.CPUPort = cpuPort
	att.MemPort = memPort
	att.Window = window
	att.Mode = ModeCircuit
	st.enroll(att, cpu, mem.at)
	return att, lat, nil
}

// enroll registers a new attachment from cpu to the memory end at mem:
// on the compute rack's owner table, stamped with both endpoints at a
// tier, and hosted at the site.
func (st attachSite) enroll(att *Attachment, cpu, mem topo.RowBrickID) {
	if t := st.tier; t != nil {
		att.CPURack, att.MemRack = cpu.Rack, mem.Rack
		if t.lvl == 1 {
			att.CPUPod, att.MemPod = cpu.Pod, mem.Pod
		}
	}
	st.rack.register(att)
	st.host(att)
}

// host installs an attachment at the site: a circuit-mode one in the
// host table the packet fallback searches, and at a tier every one
// under the tier's tag at the tail of its walk order.
func (st attachSite) host(att *Attachment) {
	if att.Mode == ModeCircuit {
		ord := st.rack.cpuPos(att.CPU)
		st.hostTab[ord] = append(st.hostTab[ord], att)
	}
	att.cross = st.tier
	if st.tier != nil {
		st.tier.addCrossOrder(att)
	}
}

// unhost reverses host for a circuit-mode attachment about to move.
func (st attachSite) unhost(att *Attachment) {
	ord := st.rack.cpuPos(att.CPU)
	st.hostTab[ord] = dropAtt(st.hostTab[ord], att)
	if st.tier != nil {
		st.tier.cross.remove(att)
	}
}

// portFault finds the port fault a failed connect wraps, or nil. It
// unwraps with type assertions: errors.As would move its target to the
// heap on every failed connect, and a packet-mode spill fails one per
// attach.
func portFault(err error) *optical.PortFailedError {
	for err != nil {
		if pf, ok := err.(*optical.PortFailedError); ok {
			return pf
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return nil
		}
		err = u.Unwrap()
	}
	return nil
}
