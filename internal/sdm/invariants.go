package sdm

// Conservation invariants for the randomized churn harness. After any
// quiesced batch — admission, eviction, rebalance, consolidation — the
// scheduler's derived state (the placement indexes at every tier,
// registration indexes, host tables, rider counts, the walk orders and
// the power census) must answer exactly what a ground-truth rescan of
// the bricks answers, and every registered attachment's datapath (window
// and circuit) must be live. One checker serves the pod and the row;
// it is O(everything) by design: a test oracle, not a hot path.

import (
	"fmt"

	"repro/internal/brick"
	"repro/internal/optical"
)

// CheckInvariants cross-checks every rack's derived state and the pod
// tier's cross-rack bookkeeping against ground truth and returns the
// first violation found, or nil. An attachment owned by a tier above
// the pod (a row's cross-pod spill) is a violation here: check the row.
func (s *PodScheduler) CheckInvariants() error {
	if err := checkTiers([]*crossTier{&s.crossTier}, [][]*Controller{s.racks}); err != nil {
		return err
	}
	return checkIndexes("pod", s.cpuIdx, s.memIdx)
}

// CheckInvariants is the row's checker: every pod's racks and
// cross-rack bookkeeping, the row's cross-pod bookkeeping, and every
// pod's and the row's placement indexes against an exact recompute
// from the roots below them.
func (s *RowScheduler) CheckInvariants() error {
	tiers := []*crossTier{&s.crossTier}
	pods := make([][]*Controller, len(s.pods))
	for p, ps := range s.pods {
		tiers = append(tiers, &ps.crossTier)
		pods[p] = ps.racks
	}
	if err := checkTiers(tiers, pods); err != nil {
		return err
	}
	for p, ps := range s.pods {
		if err := checkIndexes(fmt.Sprintf("pod %d", p), ps.cpuIdx, ps.memIdx); err != nil {
			return err
		}
	}
	return checkIndexes("row", s.cpuIdx, s.memIdx)
}

// checkIndexes checks a compute and a memory placement index (nil ones
// are unbuilt: ScanLinear) against an exact recompute.
func checkIndexes(where string, cpu, mem *placementIndex) error {
	if cpu == nil {
		return nil
	}
	if err := cpu.check(); err != nil {
		return fmt.Errorf("%s: compute index: %v", where, err)
	}
	if err := mem.check(); err != nil {
		return fmt.Errorf("%s: memory index: %v", where, err)
	}
	return nil
}

// checkTiers checks the racks of pods (one list per pod) and the cross
// bookkeeping of tiers, the only tiers allowed to own attachments
// registered on those racks.
func checkTiers(tiers []*crossTier, pods [][]*Controller) error {
	owned := make(map[*crossTier]int)
	for _, ct := range tiers {
		owned[ct] = 0
	}
	liveSegs := make(map[*brick.Segment]*Attachment)
	crossRiders := make(map[*optical.Circuit]int)
	crossCircuits := make(map[*optical.Circuit]bool)
	label := func(p, ri int) string {
		if len(pods) == 1 {
			return fmt.Sprintf("rack %d", ri)
		}
		return fmt.Sprintf("pod %d rack %d", p, ri)
	}
	for p, racks := range pods {
		for ri, r := range racks {
			where := label(p, ri)
			if r.batch != nil && r.batch.active {
				return fmt.Errorf("%s: invariants checked mid-batch", where)
			}
			if err := r.checkRack(where); err != nil {
				return err
			}
			if err := r.checkDatapath(where); err != nil {
				return err
			}
			if err := r.checkAttachments(where, p, ri, owned, liveSegs, crossRiders, crossCircuits); err != nil {
				return err
			}
		}
	}

	// Cross rider counts.
	for circuit := range crossCircuits {
		if circuit.Riders != crossRiders[circuit] {
			return fmt.Errorf("rider count %d on a cross circuit with %d live packet attachments", circuit.Riders, crossRiders[circuit])
		}
	}

	// Each tier's walk order: every element live, seq strictly
	// increasing, bounded by attachSeq, and nothing registered is
	// missing (checked per attachment) or extra (checked here by count).
	for _, ct := range tiers {
		name := tierNames[ct.lvl].tier
		var lastSeq uint64
		n := 0
		for att := ct.cross.head; att != nil; att = att.crossNext {
			n++
			if att.seq <= lastSeq {
				return fmt.Errorf("%s: cross walk seq %d after %d — walk order corrupted", name, att.seq, lastSeq)
			}
			lastSeq = att.seq
			if att.seq > ct.attachSeq {
				return fmt.Errorf("%s: cross walk seq %d exceeds attachSeq %d", name, att.seq, ct.attachSeq)
			}
			if _, ok := liveSegs[att.Segment]; !ok || att.cross != ct {
				return fmt.Errorf("%s: cross walk entry for %q is not a registered attachment of the tier", name, att.Owner)
			}
		}
		if n != owned[ct] {
			return fmt.Errorf("%s: %d cross walk entries but %d registered cross attachments", name, n, owned[ct])
		}
		if ct.cross.n != n {
			return fmt.Errorf("%s: cross walk length %d but %d elements counted", name, ct.cross.n, n)
		}
	}

	// Ground-truth segment scan: every carved segment belongs to exactly
	// one live attachment, and every live attachment's segment is carved.
	for p, racks := range pods {
		for ri, r := range racks {
			for pos, m := range r.memories {
				id := r.memoryOrder[pos]
				for _, seg := range m.Segments() {
					att, ok := liveSegs[seg]
					if !ok {
						return fmt.Errorf("%s: orphaned segment %v+%v owned by %q on %v", label(p, ri), seg.Offset, seg.Size, seg.Owner, id)
					}
					if att.Segment.Brick != id {
						return fmt.Errorf("%s: attachment of %q names brick %v but its segment lives on %v", label(p, ri), att.Owner, att.Segment.Brick, id)
					}
					delete(liveSegs, seg)
				}
			}
		}
	}
	for _, att := range liveSegs {
		return fmt.Errorf("attachment of %q holds a segment no memory brick carries", att.Owner)
	}
	return nil
}

// checkAttachments checks the attachments registered on rack ri of pod
// p: owner interning, segment uniqueness, tier tags, walk-order
// membership, and that every circuit-mode attachment sits exactly once
// in its host table — circuitHosts rack-locally, crossHosts at its
// owning tier's level — with no table holding anything else. It counts
// each owning tier's attachments into owned and the cross circuits'
// packet riders into crossRiders.
func (c *Controller) checkAttachments(where string, p, ri int, owned map[*crossTier]int, liveSegs map[*brick.Segment]*Attachment, crossRiders map[*optical.Circuit]int, crossCircuits map[*optical.Circuit]bool) error {
	rackRiders := make(map[*optical.Circuit]int)
	rackCircuits := make(map[*optical.Circuit]bool)
	hostSeen := make(map[*Attachment]bool)
	onceIn := func(hosts []*Attachment, att *Attachment, table string) error {
		n := 0
		for _, h := range hosts {
			if h == att {
				n++
			}
		}
		if n != 1 {
			return fmt.Errorf("%s: circuit attachment of %q appears %d times in %s", where, att.Owner, n, table)
		}
		hostSeen[att] = true
		return nil
	}
	for oid, list := range c.attachments {
		owner := c.owners[oid]
		for _, att := range list {
			if att.Owner != owner {
				return fmt.Errorf("%s: attachment of %q registered under %q", where, att.Owner, owner)
			}
			if int(att.ownerID) != oid {
				return fmt.Errorf("%s: attachment of %q carries owner id %d, registered at %d", where, att.Owner, att.ownerID, oid)
			}
			if prev, dup := liveSegs[att.Segment]; dup {
				return fmt.Errorf("%s: segment %v+%v owned by both %q and %q", where, att.Segment.Offset, att.Segment.Size, prev.Owner, att.Owner)
			}
			liveSegs[att.Segment] = att
			if ct := att.cross; ct != nil {
				if _, ok := owned[ct]; !ok {
					return fmt.Errorf("%s: attachment of %q tagged with a foreign tier", where, att.Owner)
				}
				if att.CPURack != ri || (ct.lvl == 1 && att.CPUPod != p) {
					return fmt.Errorf("%s: cross attachment of %q registered off its compute rack", where, att.Owner)
				}
				owned[ct]++
				if !ct.cross.contains(att) {
					return fmt.Errorf("%s: cross attachment of %q missing from the cross walk order", where, att.Owner)
				}
				crossCircuits[att.Circuit] = true
				if att.Mode == ModePacket {
					crossRiders[att.Circuit]++
					continue
				}
				if err := onceIn(c.crossHosts[ct.lvl][c.cpuPos(att.CPU)], att, "crossHosts"); err != nil {
					return err
				}
				continue
			}
			if att.CPURack != att.MemRack || att.CPUPod != att.MemPod {
				return fmt.Errorf("%s: attachment of %q spans racks %d→%d without a tier tag", where, att.Owner, att.CPURack, att.MemRack)
			}
			rackCircuits[att.Circuit] = true
			if att.Mode == ModePacket {
				rackRiders[att.Circuit]++
				continue
			}
			if err := onceIn(c.circuitHosts[c.cpuPos(att.CPU)], att, "circuitHosts"); err != nil {
				return err
			}
		}
	}
	// No host table carries stale entries.
	for ord, hosts := range c.circuitHosts {
		for _, h := range hosts {
			if !hostSeen[h] || h.cross != nil {
				return fmt.Errorf("%s: orphaned circuitHosts entry for %q on %v", where, h.Owner, c.computeOrder[ord])
			}
		}
	}
	for lvl, tab := range c.crossHosts {
		for ord, hosts := range tab {
			for _, h := range hosts {
				if !hostSeen[h] || h.cross == nil || h.cross.lvl != lvl {
					return fmt.Errorf("%s: orphaned crossHosts entry for %q on %v", where, h.Owner, c.computeOrder[ord])
				}
			}
		}
	}
	// Rider counts match the packet attachments per rack circuit.
	for circuit := range rackCircuits {
		if circuit.Riders != rackRiders[circuit] {
			return fmt.Errorf("%s: rider count %d on a circuit with %d live packet attachments", where, circuit.Riders, rackRiders[circuit])
		}
	}
	return nil
}

// checkDatapath checks that every attachment registered on this
// (compute) rack is usable end to end: its TGL window translates on its
// compute brick's agent, and its circuit — its own, or the host circuit
// a packet rider shares — is the live circuit on its CPU port in the
// rack fabric, where circuits of every tier register their endpoints.
func (c *Controller) checkDatapath(where string) error {
	for _, list := range c.attachments {
		for _, att := range list {
			if _, err := c.compute(att.CPU).Agent.Glue.Translate(att.Window.Base); err != nil {
				return fmt.Errorf("%s: window of %q does not translate: %v", where, att.Owner, err)
			}
			if live, ok := c.fabric.CircuitAt(att.CPUPort); !ok || live != att.Circuit {
				return fmt.Errorf("%s: circuit of %q is not live on its CPU port %v", where, att.Owner, att.CPUPort)
			}
		}
	}
	return nil
}

// checkRack checks one rack's placement indexes against an exact
// recompute from its bricks, and its gap caches and power states
// against ground-truth scans.
func (c *Controller) checkRack(where string) error {
	for pos, node := range c.computes {
		id := c.computeOrder[pos]
		b := node.Brick
		if !b.IsIdle() && b.State() != brick.PowerActive {
			return fmt.Errorf("%s: compute %v has allocations but state %v", where, id, b.State())
		}
		if b.State() == brick.PowerOff && !b.IsIdle() {
			return fmt.Errorf("%s: compute %v powered off with allocations", where, id)
		}
	}
	for pos, m := range c.memories {
		id := c.memoryOrder[pos]
		if g := m.LargestGapScan(); g != m.LargestGap() {
			return fmt.Errorf("%s: memory %v gap cache %v diverged from scan %v", where, id, m.LargestGap(), g)
		}
		if !m.IsIdle() && m.State() != brick.PowerActive {
			return fmt.Errorf("%s: memory %v has segments but state %v", where, id, m.State())
		}
		if m.State() == brick.PowerOff && !m.IsIdle() {
			return fmt.Errorf("%s: memory %v powered off with segments", where, id)
		}
	}
	if c.cfg.Scan == ScanLinear {
		// Nothing maintains the indexes in linear-scan mode.
		return nil
	}
	return checkIndexes(where, c.cpuIdx, c.memIdx)
}
