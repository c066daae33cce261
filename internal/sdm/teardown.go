package sdm

// Teardown, rack tier and below every tier. One body — detachSite.detach
// — retires an attachment wherever it lives: per-request
// DetachRemoteMemory at the rack, pod and row tiers, ReleaseBatch's
// rack-local teardowns, and the pod and row EvictBatch cross phases all
// call it, differing only in the site they pass (endpoint racks,
// circuit tier, host table, walk order, counters) and in whether they
// journal. The body validates liveness and riders, releases the ports
// and segment, removes the TGL window and tears the circuit down, with
// the same latency accounting, counters and error surfaces at every
// tier — so a batch of size 1 reproduces the sequential detach path bit
// for bit, and a refused detach leaves the attachment live everywhere.
//
// ReleaseBatch amortizes index maintenance the way PlaceBatch does:
// touches divert to the batch dirty sets and flush once per touched
// brick at batch end. Every batch teardown appends an undo record to a
// journal. The record captures exactly what the detach destroyed — the
// segment offsets, the port IDs, the registration positions — so the
// pod and row tiers' all-or-nothing EvictBatch can replay the journal in
// reverse and restore the pre-batch state byte-identically (segments
// re-carved at their exact offsets, the exact ports re-acquired,
// circuits rebuilt and re-keyed for any packet-mode riders, the walk
// order re-threaded without re-stamping spill sequence numbers).
// Per-request detaches pass no journal and never grow one.

import (
	"fmt"

	"repro/internal/brick"
	"repro/internal/sim"
	"repro/internal/topo"
)

// ReleaseRequest is one retirement of a VM-shaped consumer in a batch:
// the attachments to tear down (in the caller's order — scale-down
// paths pass newest-first) and the compute reservation to return.
type ReleaseRequest struct {
	// Owner tags the consumer being retired.
	Owner string
	// CPU is the compute brick whose reservation is released; ignored
	// when VCPUs is 0 and no LocalMem is held.
	CPU topo.BrickID
	// VCPUs and LocalMem are the compute reservation being returned; 0/0
	// marks a detach-only request.
	VCPUs    int
	LocalMem brick.Bytes
	// Atts are the attachments to detach, processed in order. Rack-tier
	// callers pass rack-local attachments only; the pod tier routes
	// cross-rack ones through its own serial phase.
	Atts []*Attachment
	// Rack names CPU's rack at the pod tier; rack controllers ignore it.
	Rack int
}

// ReleaseResult is one retirement's outcome.
type ReleaseResult struct {
	// DetachLat is the summed orchestration latency of the request's
	// detaches, each accounted exactly as DetachRemoteMemory would.
	DetachLat sim.Duration
	// Detached counts attachments actually torn down.
	Detached int
	// Err marks a failed request: its remaining detaches and the compute
	// release were skipped (already-detached attachments stay detached —
	// use the pod tier's EvictBatch for all-or-nothing semantics).
	Err error

	// released records a completed compute release for rollback.
	released bool
}

// detachSite locates one attachment's teardown: its two endpoint
// controllers (the same one for rack-local attachments), the optical
// tier its circuit rides, the per-compute-ordinal host table its
// circuit registers in on the compute rack, the walk order of the tier
// that owns it (nil at rack tier), that tier's counters, and the noun
// its error texts use.
type detachSite struct {
	cpuRack, memRack *Controller
	t                connector
	hostTab          [][]*Attachment
	order            *crossList
	stats            *tally
	noun             string
}

// localSite is the detach site of a rack-local attachment of c.
func (c *Controller) localSite() detachSite {
	return detachSite{cpuRack: c, memRack: c, t: c.rackTier(), hostTab: c.circuitHosts, stats: &c.tally}
}

// detachUndo records one teardown so an aborting batch can restore the
// attachment exactly: same segment offset, same ports, same positions
// in every registration index, same spill sequence number.
type detachUndo struct {
	att    *Attachment
	packet bool

	// cpuRack/memRack are the controllers owning the two endpoints and t
	// the circuit's tier; memID/segOffset/segSize the released segment's
	// identity, captured before the Release because the segment object
	// returns to its brick's arena and may be recycled by the time
	// rollback replays the record — rollback re-carves at the exact
	// offset.
	cpuRack   *Controller
	memRack   *Controller
	memID     topo.BrickID
	segOffset brick.Bytes
	segSize   brick.Bytes
	t         connector

	// hosts is the host slot of the attachment's compute brick (its own
	// position there is hostIdx in circuit mode; a packet rider's host is
	// found there), attIdx its position in attachments[owner].
	hosts   *[]*Attachment
	hostIdx int
	attIdx  int

	// order and crossNext restore a cross attachment's walk order: it is
	// re-inserted before crossNext (appended when nil) with its original
	// seq — attachSeq itself never moves on teardown. nil at rack tier.
	order     *crossList
	crossNext *Attachment
}

// beginTeardown opens batch mode and resets the teardown journal.
func (c *Controller) beginTeardown() {
	c.beginBatch()
	c.undoLog = c.undoLog[:0]
}

// ReleaseBatch retires a batch of consumers against this rack: per
// request its attachments detach and its compute reservation returns,
// with index-leaf refreshes deferred and merged — one refresh per
// touched brick per batch. Requests are served in order; a request that
// fails mid-teardown has its Err set and later requests still run.
// out must have len(reqs) slots.
func (c *Controller) ReleaseBatch(reqs []ReleaseRequest, out []ReleaseResult) {
	c.beginTeardown()
	for i := range reqs {
		r := &reqs[i]
		c.releaseOne(r.CPU, r.VCPUs, r.LocalMem, r.Atts, &out[i])
	}
	c.endBatch()
}

// releaseShard is ReleaseBatch over a pod's eviction shard.
func (c *Controller) releaseShard(reqs []EvictRequest, out []ReleaseResult) {
	c.beginTeardown()
	for i := range reqs {
		r := &reqs[i]
		c.releaseOne(r.CPU, r.VCPUs, r.LocalMem, r.Atts, &out[i])
	}
	c.endBatch()
}

// releaseOne serves one retirement of a batch. Cross attachments are
// their tier's to tear down, never a rack batch's.
func (c *Controller) releaseOne(cpu topo.BrickID, vcpus int, localMem brick.Bytes, atts []*Attachment, res *ReleaseResult) {
	*res = ReleaseResult{}
	site := c.localSite()
	for _, att := range atts {
		if att.cross != nil {
			res.Err = fmt.Errorf("sdm: %sattachment of %q in a rack-local release batch", tierNames[att.cross.lvl].site, att.Owner)
			return
		}
		lat, err := site.detach(att, &c.undoLog)
		if err != nil {
			res.Err = err
			return
		}
		res.DetachLat += lat
		res.Detached++
	}
	if vcpus > 0 || localMem > 0 {
		if err := c.ReleaseCompute(cpu, vcpus, localMem); err != nil {
			res.Err = err
			return
		}
		res.released = true
	}
}

// detach is the one teardown body (see the file comment). A packet
// rider drops its window and segment; a circuit attachment releases its
// ports and segment, then drops its window and circuit. Every failure
// leaves the attachment live — registered, its window mapped and its
// circuit up — and journal, when non-nil, receives the undo record of
// a completed teardown.
func (st detachSite) detach(att *Attachment, journal *[]detachUndo) (sim.Duration, error) {
	rackA, rackB := st.cpuRack, st.memRack
	st.stats.requests++
	idx := -1
	if id := int(att.ownerID); id >= 0 && id < len(rackA.attachments) {
		for i, a := range rackA.attachments[id] {
			if a == att {
				idx = i
				break
			}
		}
	}
	if idx == -1 {
		st.stats.failures++
		return 0, fmt.Errorf("sdm: %sattachment for %q on %v not live", st.noun, att.Owner, att.CPU)
	}
	cfg := &rackA.cfg
	cpuOrd := rackA.cpuPos(att.CPU)
	node := rackA.computes[cpuOrd]
	memID := att.Segment.Brick
	m := rackB.memory(memID)
	u := detachUndo{
		att: att, cpuRack: rackA, memRack: rackB, t: st.t,
		memID: memID, segOffset: att.Segment.Offset, segSize: att.Segment.Size,
		hosts: &st.hostTab[cpuOrd], attIdx: idx,
		order: st.order, crossNext: att.crossNext,
	}
	var lat sim.Duration
	if att.Mode == ModePacket {
		if err := node.Agent.Glue.Detach(att.Window.Base); err != nil {
			st.stats.failures++
			return 0, err
		}
		if err := m.Release(att.Segment); err != nil {
			// Re-installing the window just removed cannot fail.
			_ = node.Agent.Glue.Attach(att.Window)
			st.stats.failures++
			return 0, err
		}
		if att.Circuit.Riders > 0 {
			att.Circuit.Riders--
		}
		u.packet = true
		rackB.touchMemory(memID)
		// Two lookup-table pushes plus the decision.
		lat = cfg.DecisionLatency + 2*cfg.AgentRTT
	} else {
		if n := att.Circuit.Riders; n > 0 {
			st.stats.failures++
			return 0, fmt.Errorf("sdm: %scircuit of %q on %v carries %d packet-mode riders; detach them first", st.noun, att.Owner, att.CPU, n)
		}
		// Touch both endpoints on every exit, exactly once.
		cpu := att.CPU
		defer func() {
			rackA.touchCompute(cpu)
			rackB.touchMemory(memID)
		}()
		// The releases run first: they are what a live attachment can
		// refuse (a quarantined port refuses release), so a refusal
		// leaves it untouched, and any later failure re-claims them.
		released, err := u.release(node, m)
		if err == nil {
			lat = cfg.DecisionLatency
			if err = node.Agent.Glue.Detach(att.Window.Base); err == nil {
				lat += cfg.AgentRTT
				var d sim.Duration
				d, err = st.t.disconnect(att.Circuit)
				lat += d
				if err != nil {
					if uerr := node.Agent.Glue.Attach(att.Window); uerr != nil {
						err = fmt.Errorf("sdm: detach failed (%v) and rollback failed: %w", err, uerr)
					}
				}
			}
		}
		if err != nil {
			u.unrelease(node, m, released)
			st.stats.failures++
			return 0, err
		}
		hosts := *u.hosts
		for i, a := range hosts {
			if a == att {
				u.hostIdx = i
				*u.hosts = append(hosts[:i], hosts[i+1:]...)
				break
			}
		}
	}
	if journal != nil {
		*journal = append(*journal, u)
	}
	list := rackA.attachments[att.ownerID]
	rackA.attachments[att.ownerID] = append(list[:idx], list[idx+1:]...)
	if st.order != nil {
		st.order.remove(att)
	}
	return lat, nil
}

// release frees a circuit attachment's CPU port, memory port and
// segment in that order, stopping at the first refusal, and returns how
// many releases completed.
func (u *detachUndo) release(node *ComputeNode, m *brick.Memory) (int, error) {
	if err := node.Brick.Ports.Release(u.att.CPUPort); err != nil {
		return 0, err
	}
	if err := m.Ports.Release(u.att.MemPort); err != nil {
		return 1, err
	}
	if err := m.Release(u.att.Segment); err != nil {
		return 2, err
	}
	return 3, nil
}

// unrelease re-claims the first n releases of a refused teardown, in
// reverse and at their exact identities: the segment re-carves at its
// offset, the ports re-acquire by number. Each re-claims what this
// teardown itself just freed, so none can fail.
func (u *detachUndo) unrelease(node *ComputeNode, m *brick.Memory, n int) {
	if n > 2 {
		u.att.Segment, _ = m.CarveAt(u.segOffset, u.segSize, u.att.Owner)
	}
	if n > 1 {
		_ = m.Ports.Reacquire(u.att.MemPort)
	}
	if n > 0 {
		_ = node.Brick.Ports.Reacquire(u.att.CPUPort)
	}
}

// insertAtt re-inserts att into list at position idx.
func insertAtt(list []*Attachment, idx int, att *Attachment) []*Attachment {
	list = append(list, nil)
	copy(list[idx+1:], list[idx:])
	list[idx] = att
	return list
}

// undoDetach restores one journaled teardown. Circuit-mode restores
// rebuild the circuit as a fresh object; packet-mode riders that shared
// a torn-down circuit re-key onto the replacement via the live host
// (their host, torn down after them, is restored before them by the
// reverse replay).
func (u *detachUndo) undoDetach() error {
	att := u.att
	rackA := u.cpuRack
	node := rackA.compute(att.CPU)
	m := u.memRack.memory(u.memID)
	seg, err := m.CarveAt(u.segOffset, u.segSize, att.Owner)
	if err != nil {
		return err
	}
	att.Segment = seg
	if u.packet {
		// Re-key onto the host circuit, which a circuit-mode restore may
		// have rebuilt: the live host on this CPU port carries it.
		for _, h := range *u.hosts {
			if h.CPUPort == att.CPUPort {
				att.Circuit = h.Circuit
				break
			}
		}
		if err := node.Agent.Glue.Attach(att.Window); err != nil {
			m.Release(seg)
			return err
		}
		att.Circuit.Riders++
	} else {
		if err := node.Brick.Ports.Reacquire(att.CPUPort); err != nil {
			m.Release(seg)
			return err
		}
		if err := m.Ports.Reacquire(att.MemPort); err != nil {
			node.Brick.Ports.Release(att.CPUPort)
			m.Release(seg)
			return err
		}
		circuit, _, err := u.t.connect(att.CPUPort, att.MemPort)
		if err != nil {
			m.Ports.Release(att.MemPort)
			node.Brick.Ports.Release(att.CPUPort)
			m.Release(seg)
			return err
		}
		att.Circuit = circuit
		if err := node.Agent.Glue.Attach(att.Window); err != nil {
			u.t.disconnect(circuit)
			m.Ports.Release(att.MemPort)
			node.Brick.Ports.Release(att.CPUPort)
			m.Release(seg)
			return err
		}
		*u.hosts = insertAtt(*u.hosts, u.hostIdx, att)
	}
	// Registrations go back at their recorded positions.
	rackA.register(att)
	list := rackA.attachments[att.ownerID]
	rackA.attachments[att.ownerID] = insertAtt(list[:len(list)-1], u.attIdx, att)
	if u.order != nil {
		// Re-thread the walk order without re-stamping seq.
		u.order.insertBefore(att, u.crossNext)
	}
	rackA.touchCompute(att.CPU)
	u.memRack.touchMemory(u.memID)
	return nil
}
