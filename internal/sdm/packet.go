package sdm

// Packet mode, paper §III's fallback for low port counts: an attachment
// rides another attachment's circuit to the same memory brick, steered
// by the on-brick packet switches. The attach body (batch.go) cascades
// into it at every tier when circuit resources run out; the rider
// detaches through the one teardown body (teardown.go).

import (
	"fmt"

	"repro/internal/brick"
	"repro/internal/sim"
	"repro/internal/tgl"
	"repro/internal/topo"
)

// AttachMode distinguishes how an attachment reaches its dMEMBRICK.
type AttachMode int

const (
	// ModeCircuit is the mainline path: a dedicated optical circuit.
	ModeCircuit AttachMode = iota
	// ModePacket is the exploratory fallback (paper §III): the
	// attachment shares an existing circuit between the same brick pair,
	// with on-brick packet switches steering transactions. Used "where
	// the system is running low in terms of physical ports available to
	// accommodate new circuits".
	ModePacket
)

func (m AttachMode) String() string {
	if m == ModePacket {
		return "packet"
	}
	return "circuit"
}

// packet is the one packet-mode attach, at every tier: a segment
// carved on a memory brick a live circuit of the site's host table
// already reaches from cpu's brick, and the new attachment rides that
// circuit. The control path programs the packet-switch lookup tables
// on both bricks (two agent pushes) instead of reconfiguring an optical
// switch, so it is much faster on the control plane — the datapath pays
// instead (see pktnet.RoundTrip vs. CircuitRoundTrip).
func (st attachSite) packet(owner string, cpu topo.RowBrickID, size brick.Bytes) (*Attachment, sim.Duration, error) {
	c := st.rack
	cpuOrd := c.cpuPos(cpu.Brick)
	node := c.computes[cpuOrd]
	// The first host, in attach order, whose memory brick has room.
	var host *Attachment
	var memRack *Controller
	for _, a := range st.hostTab[cpuOrd] {
		r := c
		if st.tier != nil {
			r = st.tier.spec.rackOf(a.memAt())
		}
		if r.memory(a.Segment.Brick).LargestGap() >= size {
			host, memRack = a, r
			break
		}
	}
	if host == nil {
		return nil, 0, fmt.Errorf("sdm: packet fallback: no live circuit from %v to a memory brick with %v contiguous free", cpu.Brick, size)
	}
	m := memRack.memory(host.Segment.Brick)
	seg, err := m.Carve(size, owner)
	if err != nil {
		return nil, 0, err
	}
	window := tgl.Entry{
		Base:       node.nextWindow,
		Size:       uint64(size),
		Dest:       host.Segment.Brick,
		DestOffset: uint64(seg.Offset),
		Port:       host.CPUPort, // shares the host circuit's port
	}
	if err := node.Agent.Glue.Attach(window); err != nil {
		m.Release(seg)
		return nil, 0, err
	}
	node.nextWindow += window.Size

	att := c.newAttachment()
	att.Owner = owner
	att.CPU = cpu.Brick
	att.Segment = seg
	att.Circuit = host.Circuit
	att.CPUPort = host.CPUPort
	att.MemPort = host.MemPort
	att.Window = window
	att.Mode = ModePacket
	host.Circuit.Riders++
	st.enroll(att, cpu, host.memAt())
	memRack.touchMemory(host.Segment.Brick)
	// Two lookup-table pushes: compute-brick switch and memory-brick
	// glue, plus the decision that found the host circuit.
	return att, c.cfg.DecisionLatency + 2*c.cfg.AgentRTT, nil
}

// Riders returns how many packet-mode attachments share the circuit of
// the given circuit-mode attachment. The count lives on the circuit
// itself regardless of which tier owns it.
func (c *Controller) Riders(att *Attachment) int {
	return att.Circuit.Riders
}
