package sdm

import (
	"fmt"

	"repro/internal/brick"
	"repro/internal/optical"
	"repro/internal/sim"
	"repro/internal/tgl"
	"repro/internal/topo"
)

// PodScheduler shards SDM orchestration across a pod of racks: one
// autonomous per-rack Controller each owning its rack's bricks and
// circuit fabric, plus the tier body (tier.go) routing requests over
// them. The placement contract extends the rack policies to rack
// choice:
//
//   - Compute and memory go rack-local first. Power-aware and first-fit
//     pack racks in index order (so trailing racks can stay dark);
//     spread picks the rack with the most free capacity.
//   - A memory request the VM's rack cannot satisfy spills cross-rack:
//     a segment on another rack's dMEMBRICK reached through the pod
//     circuit switch, paying the pod tier's hop/fiber/reconfig profile.
//   - When no cross-rack circuit can be provisioned either (pod uplinks
//     or brick ports exhausted), the packet fallback is preserved across
//     the pod tier: the attachment rides an existing cross-rack circuit
//     from the same compute brick, steered by the on-brick packet
//     switches.
//
// Cross-rack attachments are registered in the compute rack's
// controller (so Attachments, scale-down and rider queries stay
// uniform) and tagged with the pod's crossTier, which owns their
// teardown. Rack choice descends the pod's placement indexes, whose
// leaves are the racks' index roots. Under a row the pod is itself a
// child: its index roots are its leaves in the row's indexes, as a
// rack's are in the pod's. Pod-only are the cross-rack moves: Repoint
// here, Rehome and the rebalancer in rebalance.go, Consolidate in
// consolidate.go.
type PodScheduler struct {
	tier[*Controller]
	pod    *topo.Pod
	fabric *optical.PodFabric
	// racks is the tier's kids under their pod-tier name.
	racks []*Controller

	// tierConns caches the cross-rack connectors per rack pair (see
	// link).
	tierConns map[[2]int]connector

	// rebalScratch is the rebalancer's reused sweep snapshot buffer, so
	// periodic sweeps stop allocating per call.
	rebalScratch []*Attachment

	// admitWave and evictWave are the batch engines' rack waves, built
	// once at construction: they read each batch's shard ranges through
	// the reused scratch, so a serial batch creates no closure per call
	// (a fan-out fn escapes into the fanout scratch and would otherwise
	// heap-allocate every batch).
	admitWave func(i int)
	evictWave func(i int)

	promoted uint64
}

// NewPodScheduler builds one Controller per rack over the pod fabric's
// rack-local fabrics and wires the pod tier above them.
func NewPodScheduler(pod *topo.Pod, fabric *optical.PodFabric, bc BrickConfigs, cfg Config) (*PodScheduler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if pod.Racks() == 0 {
		return nil, fmt.Errorf("sdm: pod has no racks")
	}
	if pod.Racks() != fabric.Racks() {
		return nil, fmt.Errorf("sdm: pod has %d racks but the fabric has %d", pod.Racks(), fabric.Racks())
	}
	s := &PodScheduler{pod: pod, fabric: fabric}
	for i := 0; i < pod.Racks(); i++ {
		c, err := NewController(pod.Rack(i), fabric.Rack(i), bc, cfg)
		if err != nil {
			return nil, fmt.Errorf("sdm: rack %d: %w", i, err)
		}
		c.crossHosts[0] = make([][]*Attachment, len(c.computes))
		s.racks = append(s.racks, c)
	}
	s.init(cfg, 0, s.racks, fabric, s)
	s.admitWave = func(i int) {
		sc := &s.admit
		r := sc.active[i]
		lo, hi := sc.span(r)
		s.racks[r].placeBatch(sc.subReq[lo:hi], sc.subOut[lo:hi], true)
	}
	s.evictWave = func(i int) {
		sc := &s.evict
		r := sc.active[i]
		lo, hi := sc.span(r)
		s.racks[r].releaseShard(sc.subReq[lo:hi], sc.subOut[lo:hi])
	}
	return s, nil
}

// Racks returns the rack count.
func (s *PodScheduler) Racks() int { return len(s.racks) }

// Rack returns the per-rack controller at index i, or nil if out of
// range.
func (s *PodScheduler) Rack(i int) *Controller {
	if i < 0 || i >= len(s.racks) {
		return nil
	}
	return s.racks[i]
}

// Fabric returns the pod fabric.
func (s *PodScheduler) Fabric() *optical.PodFabric { return s.fabric }

// PickComputeRack applies the placement policy to rack choice for a
// compute reservation, without reserving anything.
func (s *PodScheduler) PickComputeRack(vcpus int, localMem brick.Bytes) (int, bool) {
	k, _, ok := s.pickCompute(vcpus, localMem, -1, false)
	return k, ok
}

// PickComputeRackExcept is PickComputeRack with one rack excluded —
// used by cross-rack VM migration.
func (s *PodScheduler) PickComputeRackExcept(vcpus int, localMem brick.Bytes, exclude int) (int, bool) {
	k, _, ok := s.pickCompute(vcpus, localMem, exclude, false)
	return k, ok
}

// ReserveCompute places a compute reservation pod-wide: the policy
// picks a rack, the rack's controller picks the brick.
func (s *PodScheduler) ReserveCompute(owner string, vcpus int, localMem brick.Bytes) (topo.PodBrickID, sim.Duration, error) {
	id, lat, err := s.reserve(vcpus, localMem, false)
	return topo.PodBrickID{Rack: id.Rack, Brick: id.Brick}, lat, err
}

// ReleaseCompute returns cores and local memory to a brick.
func (s *PodScheduler) ReleaseCompute(id topo.PodBrickID, vcpus int, localMem brick.Bytes) error {
	return s.releaseAt(topo.RowBrickID{Rack: id.Rack, Brick: id.Brick}, vcpus, localMem)
}

// AttachRemoteMemory realizes one memory attachment pod-wide:
// rack-local first (with the rack's own circuit-then-packet cascade),
// then the cross-rack spill, then the pod-tier packet fallback.
func (s *PodScheduler) AttachRemoteMemory(owner string, cpu topo.PodBrickID, size brick.Bytes) (*Attachment, sim.Duration, error) {
	return s.attach(owner, topo.RowBrickID{Rack: cpu.Rack, Brick: cpu.Brick}, size)
}

// The pod's side of the child contract, as its row sees it; indexes,
// freeCores and freeMemory are the tier body's.

// maxGap is the pod's largest contiguous memory gap, read at its memory
// root (a walk over the racks under ScanLinear).
func (s *PodScheduler) maxGap() brick.Bytes {
	if s.memIdx != nil {
		return brick.Bytes(s.memIdx.maxFitAAny())
	}
	var g brick.Bytes
	for _, r := range s.racks {
		g = max(g, r.MaxMemoryGap())
	}
	return g
}

// canPlaceCompute is the pod's compute screen at its root: false means
// no brick in the pod fits.
func (s *PodScheduler) canPlaceCompute(vcpus int, localMem brick.Bytes) bool {
	return s.cpuIdx.canFit(int64(vcpus), int64(localMem))
}
func (s *PodScheduler) pickComputeIn(vcpus int, localMem brick.Bytes, cached bool) (topo.RowBrickID, bool) {
	_, loc, ok := s.pickCompute(vcpus, localMem, -1, cached)
	return loc, ok
}
func (s *PodScheduler) fitsMemory(size brick.Bytes) bool {
	_, ok := s.pickMemory(size, -1)
	return ok
}
func (s *PodScheduler) pickMem(size brick.Bytes, self int) (memPick, bool) {
	m, ok := s.pickMemory(size, -1)
	m.at.Pod = self
	return m, ok
}
func (s *PodScheduler) rackAt(i int) *Controller { return s.racks[i] }
func (s *PodScheduler) hasRack(i int) bool       { return i >= 0 && i < len(s.racks) }
func (s *PodScheduler) claimIn(loc topo.RowBrickID, vcpus int, localMem brick.Bytes, cached bool) (sim.Duration, error) {
	s.requests++
	return s.claim(loc.Rack, loc, vcpus, localMem, cached)
}

func (s *PodScheduler) releaseIn(id topo.RowBrickID, vcpus int, localMem brick.Bytes) error {
	return s.releaseAt(id, vcpus, localMem)
}
func (s *PodScheduler) attachIn(owner string, cpu topo.RowBrickID, size brick.Bytes) (*Attachment, sim.Duration, error) {
	return s.attach(owner, cpu, size)
}
func (s *PodScheduler) doom(cpu topo.RowBrickID) {
	s.requests++
	s.failures++
	s.racks[cpu.Rack].doom(cpu)
}

// crossLink is the pod switch between two racks (see link).
func (s *PodScheduler) crossLink(cpu, mem topo.RowBrickID) connector {
	return s.link(cpu.Rack, mem.Rack)
}

// link returns the connector joining compute rack ra to memory rack
// rb: the rack's own fabric when they coincide, the pod switch (one
// uplink per endpoint rack) otherwise. Cross-rack connectors are cached
// per rack pair — circuit setup runs on every spill, so the closures
// are built once, not per attach.
func (s *PodScheduler) link(ra, rb int) connector {
	if ra == rb {
		return s.racks[ra].rackTier()
	}
	if s.tierConns == nil {
		s.tierConns = make(map[[2]int]connector)
	}
	key := [2]int{ra, rb}
	if t, ok := s.tierConns[key]; ok {
		return t
	}
	t := connector{
		connect: func(a, b topo.PortID) (*optical.Circuit, sim.Duration, error) {
			return s.fabric.ConnectCross(ra, a, rb, b)
		},
		disconnect: s.fabric.DisconnectCross,
	}
	s.tierConns[key] = t
	return t
}

// admitWaves runs every rack's admission sub-batch — the attaches of
// the computes the partition claimed — on its own worker; evictWaves
// runs every rack's teardown sub-batch.
func (s *PodScheduler) admitWaves(workers int) { s.wave(workers, s.admit.active, s.admitWave) }
func (s *PodScheduler) evictWaves(workers int) { s.wave(workers, s.evict.active, s.evictWave) }

func (s *PodScheduler) repoint(att *Attachment, newCPU topo.BrickID) (tgl.Entry, sim.Duration, error) {
	return s.Repoint(att, topo.PodBrickID{Rack: att.CPURack, Brick: newCPU})
}

// Repoint re-points an attachment's compute end at any brick in the
// pod, re-tiering the circuit as the endpoints dictate: it stays (or
// becomes) a pod-switch circuit when the new compute rack differs from
// the memory rack, and collapses to a rack-local circuit — releasing
// both pod uplinks — when the VM lands on the rack that holds its
// memory. The segment, and the data on it, never move. This is the
// primitive that lets a VM's remote memory follow it across racks
// during migration.
func (s *PodScheduler) Repoint(att *Attachment, newCPU topo.PodBrickID) (tgl.Entry, sim.Duration, error) {
	if att.cross != nil && att.cross != &s.crossTier {
		// Another tier owns it (re-tiering through the row switch is not
		// modeled).
		return att.cross.spec.repoint(att, newCPU.Brick)
	}
	if att.cross == nil && att.CPURack == newCPU.Rack {
		// Purely rack-local: the rack controller owns the bookkeeping.
		return s.racks[att.CPURack].ReattachRemoteMemory(att, newCPU.Brick)
	}
	s.requests++
	if newCPU.Rack < 0 || newCPU.Rack >= len(s.racks) {
		s.failures++
		return tgl.Entry{}, 0, fmt.Errorf("sdm: no rack %d in the pod", newCPU.Rack)
	}
	oldRack, newRack := s.racks[att.CPURack], s.racks[newCPU.Rack]
	if !oldRack.registered(att) {
		s.failures++
		return tgl.Entry{}, 0, fmt.Errorf("sdm: attachment for %q not live", att.Owner)
	}
	if newRack.cpuPos(newCPU.Brick) < 0 {
		s.failures++
		return tgl.Entry{}, 0, fmt.Errorf("sdm: no compute brick %v", newCPU)
	}
	if newCPU.Rack == att.CPURack && newCPU.Brick == att.CPU {
		s.failures++
		return tgl.Entry{}, 0, fmt.Errorf("sdm: reattach to the same brick %v", newCPU)
	}
	if err := oldRack.CanRepoint(att); err != nil {
		s.failures++
		return tgl.Entry{}, 0, err
	}
	op := planRepoint(s.cfg, att, oldRack, newRack, newCPU.Brick,
		s.link(att.CPURack, att.MemRack), s.link(newCPU.Rack, att.MemRack),
		func(newCPUPort topo.PortID, circuit *optical.Circuit, window tgl.Entry) {
			// Owner registration follows the compute rack (register re-stamps
			// ownerID against the new rack's intern table).
			if att.CPURack != newCPU.Rack {
				oldRack.unregister(att)
				newRack.register(att)
			}
			s.siteOf(att).unhost(att)
			att.CPU = newCPU.Brick
			att.CPUPort = newCPUPort
			att.Circuit = circuit
			att.Window = window
			att.CPURack = newCPU.Rack
			s.siteOf(att).host(att)
		})
	lat, err := op.Commit()
	if err != nil {
		s.failures++
		return tgl.Entry{}, 0, err
	}
	return att.Window, lat, nil
}

// siteOf is the attach site hosting a circuit attachment by its
// endpoints: the pod's own when they sit on different racks, the
// compute rack's otherwise.
func (s *PodScheduler) siteOf(att *Attachment) attachSite {
	if att.CrossRack() {
		return s.spillSite(att.cpuAt())
	}
	return s.racks[att.CPURack].rackSite()
}
