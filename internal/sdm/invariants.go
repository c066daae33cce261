package sdm

// Conservation invariants for the randomized churn harness. After any
// quiesced batch — admission, eviction, rebalance, consolidation — the
// scheduler's derived state (index roots, registration indexes, rider
// counts, the rebalancer walk order, the power census) must answer
// exactly what a ground-truth rescan of the bricks answers, and every
// registered attachment's datapath (window and circuit) must be live. The checker
// is O(everything) by design: it is a test oracle, not a hot path.

import (
	"fmt"

	"repro/internal/brick"
	"repro/internal/optical"
)

// CheckInvariants cross-checks every rack's derived state against
// ground truth and returns the first violation found, or nil.
func (s *PodScheduler) CheckInvariants() error {
	liveSegs := make(map[*brick.Segment]*Attachment)
	crossRegistered := 0
	podRiders := make(map[*optical.Circuit]int)
	podCircuits := make(map[*optical.Circuit]bool)
	for ri, r := range s.racks {
		if r.batch != nil && r.batch.active {
			return fmt.Errorf("rack %d: invariants checked mid-batch", ri)
		}
		if err := r.checkRack(ri); err != nil {
			return err
		}
		if err := r.checkDatapath(ri); err != nil {
			return err
		}
		rackRiders := make(map[*optical.Circuit]int)
		rackCircuits := make(map[*optical.Circuit]bool)
		hostSeen := make(map[*Attachment]bool)
		for oid, list := range r.attachments {
			owner := r.owners[oid]
			for _, att := range list {
				if att.Owner != owner {
					return fmt.Errorf("rack %d: attachment of %q registered under %q", ri, att.Owner, owner)
				}
				if int(att.ownerID) != oid {
					return fmt.Errorf("rack %d: attachment of %q carries owner id %d, registered at %d", ri, att.Owner, att.ownerID, oid)
				}
				if prev, dup := liveSegs[att.Segment]; dup {
					return fmt.Errorf("rack %d: segment %v+%v owned by both %q and %q", ri, att.Segment.Offset, att.Segment.Size, prev.Owner, att.Owner)
				}
				liveSegs[att.Segment] = att
				if att.cross != nil {
					if att.cross != s {
						return fmt.Errorf("rack %d: attachment of %q tagged with a foreign pod scheduler", ri, att.Owner)
					}
					if att.CPURack != ri {
						return fmt.Errorf("rack %d: cross attachment of %q registered off its compute rack %d", ri, att.Owner, att.CPURack)
					}
					crossRegistered++
					if !s.cross.contains(att) {
						return fmt.Errorf("rack %d: cross attachment of %q missing from the cross walk order", ri, att.Owner)
					}
					if att.Mode == ModePacket {
						podRiders[att.Circuit]++
					}
					podCircuits[att.Circuit] = true
					continue
				}
				if att.CPURack != att.MemRack {
					return fmt.Errorf("rack %d: attachment of %q spans racks %d→%d without a pod tag", ri, att.Owner, att.CPURack, att.MemRack)
				}
				rackCircuits[att.Circuit] = true
				if att.Mode == ModePacket {
					rackRiders[att.Circuit]++
					continue
				}
				found := false
				for _, h := range r.circuitHosts[r.cpuPos(att.CPU)] {
					if h == att {
						if found {
							return fmt.Errorf("rack %d: attachment of %q twice in circuitHosts", ri, att.Owner)
						}
						found = true
					}
				}
				if !found {
					return fmt.Errorf("rack %d: circuit attachment of %q missing from circuitHosts", ri, att.Owner)
				}
				hostSeen[att] = true
			}
		}
		// circuitHosts carries no stale entries.
		for ord, hosts := range r.circuitHosts {
			for _, h := range hosts {
				if !hostSeen[h] {
					return fmt.Errorf("rack %d: orphaned circuitHosts entry for %q on %v", ri, h.Owner, r.computeOrder[ord])
				}
			}
		}
		// Rider counts match the packet attachments per circuit.
		for circuit := range rackCircuits {
			if circuit.Riders != rackRiders[circuit] {
				return fmt.Errorf("rack %d: rider count %d on a circuit with %d live packet attachments", ri, circuit.Riders, rackRiders[circuit])
			}
		}
	}

	// Pod rider counts.
	for circuit := range podCircuits {
		if circuit.Riders != podRiders[circuit] {
			return fmt.Errorf("pod: rider count %d on a cross circuit with %d live packet attachments", circuit.Riders, podRiders[circuit])
		}
	}

	// The cross walk order: every element live, seq strictly increasing,
	// bounded by attachSeq, and nothing registered is missing (checked
	// above) or extra (checked here by count).
	var lastSeq uint64
	n := 0
	for att := s.cross.head; att != nil; att = att.crossNext {
		n++
		if att.seq <= lastSeq {
			return fmt.Errorf("pod: cross walk seq %d after %d — walk order corrupted", att.seq, lastSeq)
		}
		lastSeq = att.seq
		if att.seq > s.attachSeq {
			return fmt.Errorf("pod: cross walk seq %d exceeds attachSeq %d", att.seq, s.attachSeq)
		}
		if _, ok := liveSegs[att.Segment]; !ok {
			return fmt.Errorf("pod: cross walk entry for %q is not a registered attachment", att.Owner)
		}
	}
	if n != crossRegistered {
		return fmt.Errorf("pod: %d cross walk entries but %d registered cross attachments", n, crossRegistered)
	}
	if s.cross.n != n {
		return fmt.Errorf("pod: cross walk length %d but %d elements counted", s.cross.n, n)
	}

	// Ground-truth segment scan: every carved segment belongs to exactly
	// one live attachment, and every live attachment's segment is carved.
	for ri, r := range s.racks {
		for pos, m := range r.memories {
			id := r.memoryOrder[pos]
			for _, seg := range m.Segments() {
				att, ok := liveSegs[seg]
				if !ok {
					return fmt.Errorf("rack %d: orphaned segment %v+%v owned by %q on %v", ri, seg.Offset, seg.Size, seg.Owner, id)
				}
				if att.Segment.Brick != id {
					return fmt.Errorf("rack %d: attachment of %q names brick %v but its segment lives on %v", ri, att.Owner, att.Segment.Brick, id)
				}
				delete(liveSegs, seg)
			}
		}
	}
	if len(liveSegs) > 0 {
		for _, att := range liveSegs {
			return fmt.Errorf("attachment of %q holds a segment no memory brick carries", att.Owner)
		}
	}
	return nil
}

// checkDatapath checks that every attachment registered on this
// (compute) rack is usable end to end: its TGL window translates on its
// compute brick's agent, and its circuit — its own, or the host circuit
// a packet rider shares — is the live circuit on its CPU port in the
// rack fabric, where circuits of every tier register their endpoints.
func (c *Controller) checkDatapath(ri int) error {
	for _, list := range c.attachments {
		for _, att := range list {
			if _, err := c.compute(att.CPU).Agent.Glue.Translate(att.Window.Base); err != nil {
				return fmt.Errorf("rack %d: window of %q does not translate: %v", ri, att.Owner, err)
			}
			if live, ok := c.fabric.CircuitAt(att.CPUPort); !ok || live != att.Circuit {
				return fmt.Errorf("rack %d: circuit of %q is not live on its CPU port %v", ri, att.Owner, att.CPUPort)
			}
		}
	}
	return nil
}

// checkRack cross-checks one rack's index roots, gap caches and power
// states against ground-truth scans.
func (c *Controller) checkRack(ri int) error {
	coreScan := 0
	for pos, node := range c.computes {
		id := c.computeOrder[pos]
		b := node.Brick
		coreScan += b.FreeCores()
		if !b.IsIdle() && b.State() != brick.PowerActive {
			return fmt.Errorf("rack %d: compute %v has allocations but state %v", ri, id, b.State())
		}
		if b.State() == brick.PowerOff && !b.IsIdle() {
			return fmt.Errorf("rack %d: compute %v powered off with allocations", ri, id)
		}
	}
	if got := c.FreeCores(); got != coreScan {
		return fmt.Errorf("rack %d: index root says %d free cores, scan says %d", ri, got, coreScan)
	}
	var memScan, maxGapScan brick.Bytes
	for pos, m := range c.memories {
		id := c.memoryOrder[pos]
		memScan += m.Free()
		if g := m.LargestGapScan(); g != m.LargestGap() {
			return fmt.Errorf("rack %d: memory %v gap cache %v diverged from scan %v", ri, id, m.LargestGap(), g)
		} else if g > maxGapScan {
			maxGapScan = g
		}
		if !m.IsIdle() && m.State() != brick.PowerActive {
			return fmt.Errorf("rack %d: memory %v has segments but state %v", ri, id, m.State())
		}
		if m.State() == brick.PowerOff && !m.IsIdle() {
			return fmt.Errorf("rack %d: memory %v powered off with segments", ri, id)
		}
	}
	if got := c.FreeMemory(); got != memScan {
		return fmt.Errorf("rack %d: index root says %v free memory, scan says %v", ri, got, memScan)
	}
	if got := c.MaxMemoryGap(); got != maxGapScan {
		return fmt.Errorf("rack %d: index root says %v max gap, scan says %v", ri, got, maxGapScan)
	}
	return nil
}
