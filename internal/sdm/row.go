package sdm

import (
	"fmt"

	"repro/internal/brick"
	"repro/internal/optical"
	"repro/internal/sim"
	"repro/internal/tgl"
	"repro/internal/topo"
)

// RowScheduler shards SDM orchestration across a row of pods — the
// datacenter-scale tier. It is the pod tier one level up: the same tier
// body (tier.go) over PodSchedulers instead of rack Controllers, with
// the same recursive placement contract:
//
//   - Compute and memory go pod-local first. Pod choice is the descent
//     the pod runs for rack choice, one level up: the row's placement
//     indexes have the pods' index roots as leaves, which have the
//     racks' roots as leaves, each maintained by a touch at the index
//     choke points — pod choice at 32 pods of 32 racks is an O(log
//     pods) descent, never a rescan of 1024 racks, and the row's power
//     census is read at its roots.
//   - A memory request the VM's pod cannot satisfy spills cross-pod: a
//     segment in another pod reached through the row circuit switch,
//     paying the row tier's hop/fiber/reconfig profile on top of both
//     endpoint racks'.
//   - When no cross-pod circuit can be provisioned (row uplinks or
//     brick ports exhausted), the packet fallback is preserved across
//     the row tier: the attachment rides an existing cross-pod circuit
//     from the same compute brick.
//
// Row-specific are the row switch (crossLink) and the batch engines'
// wave sequence (a pod routing wave, one flat (pod, rack) commit wave,
// a pod merge wave).
type RowScheduler struct {
	tier[*PodScheduler]
	row    *topo.Row
	fabric *optical.RowFabric
	// pods is the tier's kids under their row-tier name.
	pods []*PodScheduler

	// tierConns caches cross-pod connectors per endpoint quadruple
	// (cpuPod, cpuRack, memPod, memRack).
	tierConns map[[4]int]connector

	// shards lists the (pod, rack) units of the current flat commit
	// wave.
	shards []rackShard
	// The batch engines' waves, built once at construction: they read
	// each batch's shard ranges through the reused scratch, so a serial
	// batch creates no closure per call (a fan-out fn escapes into the
	// fanout scratch and would otherwise heap-allocate every batch).
	admitPlanWave   func(i int)
	admitCommitWave func(i int)
	admitMergeWave  func(i int)
	evictPlanWave   func(i int)
	evictCommitWave func(i int)
	evictMergeWave  func(i int)
}

// NewRowScheduler builds one PodScheduler per pod over the row fabric's
// pod fabrics and wires the row tier above them.
func NewRowScheduler(row *topo.Row, fabric *optical.RowFabric, bc BrickConfigs, cfg Config) (*RowScheduler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if row.Pods() == 0 {
		return nil, fmt.Errorf("sdm: row has no pods")
	}
	if row.Pods() != fabric.Pods() {
		return nil, fmt.Errorf("sdm: row has %d pods but the fabric has %d", row.Pods(), fabric.Pods())
	}
	s := &RowScheduler{row: row, fabric: fabric}
	for i := 0; i < row.Pods(); i++ {
		p, err := NewPodScheduler(row.Pod(i), fabric.Pod(i), bc, cfg)
		if err != nil {
			return nil, fmt.Errorf("sdm: pod %d: %w", i, err)
		}
		for _, r := range p.racks {
			r.crossHosts[1] = make([][]*Attachment, len(r.computes))
		}
		s.pods = append(s.pods, p)
	}
	s.init(cfg, 1, s.pods, fabric, s)
	s.admitPlanWave = func(i int) {
		sc := &s.admit
		p := sc.active[i]
		lo, hi := sc.span(p)
		s.pods[p].partition(sc.subReq[lo:hi])
	}
	s.admitCommitWave = func(i int) {
		sh := s.shards[i]
		a := &s.pods[sh.pod].admit
		lo, hi := a.span(sh.rack)
		s.pods[sh.pod].racks[sh.rack].placeBatch(a.subReq[lo:hi], a.subOut[lo:hi], true)
	}
	s.admitMergeWave = func(i int) {
		sc := &s.admit
		p := sc.active[i]
		lo, hi := sc.span(p)
		s.pods[p].gather(sc.subReq[lo:hi], sc.subOut[lo:hi])
		s.pods[p].merge(sc.subReq[lo:hi], sc.subOut[lo:hi], true)
	}
	s.evictPlanWave = func(i int) {
		sc := &s.evict
		p := sc.active[i]
		lo, hi := sc.span(p)
		s.pods[p].evictPlan(sc.subReq[lo:hi])
	}
	s.evictCommitWave = func(i int) {
		sh := s.shards[i]
		e := &s.pods[sh.pod].evict
		lo, hi := e.span(sh.rack)
		s.pods[sh.pod].racks[sh.rack].releaseShard(e.subReq[lo:hi], e.subOut[lo:hi])
	}
	s.evictMergeWave = func(i int) {
		sc := &s.evict
		p := sc.active[i]
		lo, hi := sc.span(p)
		if f, err := s.pods[p].evictMerge(sc.subReq[lo:hi], sc.subOut[lo:hi]); err != nil {
			sc.subOut[lo+f].Err = err
		}
	}
	return s, nil
}

// Pods returns the pod count.
func (s *RowScheduler) Pods() int { return len(s.pods) }

// Pod returns the pod scheduler at index i, or nil if out of range.
func (s *RowScheduler) Pod(i int) *PodScheduler {
	if i < 0 || i >= len(s.pods) {
		return nil
	}
	return s.pods[i]
}

// Fabric returns the row fabric.
func (s *RowScheduler) Fabric() *optical.RowFabric { return s.fabric }

// PodFreeCores reads one pod's free-core sum — the rank sum at its
// compute root, O(1) under the default indexed scan.
func (s *RowScheduler) PodFreeCores(i int) int64 { return s.pods[i].freeCores() }

// PodFreeMemory reads one pod's free pooled bytes, like PodFreeCores.
func (s *RowScheduler) PodFreeMemory(i int) brick.Bytes { return s.pods[i].freeMemory() }

// PodMaxGap reads one pod's largest contiguous memory gap — the
// admission doom-screen quantity. Linear mode takes the max over the
// racks.
func (s *RowScheduler) PodMaxGap(i int) brick.Bytes { return s.pods[i].maxGap() }

// ReserveCompute places a compute reservation row-wide: the policy
// picks a pod, the pod's scheduler picks the rack and brick.
func (s *RowScheduler) ReserveCompute(owner string, vcpus int, localMem brick.Bytes) (topo.RowBrickID, sim.Duration, error) {
	return s.reserve(vcpus, localMem, false)
}

// ReleaseCompute returns cores and local memory to a brick.
func (s *RowScheduler) ReleaseCompute(id topo.RowBrickID, vcpus int, localMem brick.Bytes) error {
	return s.releaseAt(id, vcpus, localMem)
}

// AttachRemoteMemory realizes one memory attachment row-wide: pod-local
// first (with the pod's own rack-local-then-cross-rack cascade), then
// the cross-pod spill, then the row-tier packet fallback.
func (s *RowScheduler) AttachRemoteMemory(owner string, cpu topo.RowBrickID, size brick.Bytes) (*Attachment, sim.Duration, error) {
	return s.attach(owner, cpu, size)
}

// crossLink returns the connector joining the compute endpoint to the
// memory endpoint: the pod's own tiers when the pods coincide, the row
// switch otherwise. Cross-pod connectors are cached per endpoint
// quadruple.
func (s *RowScheduler) crossLink(cpu, mem topo.RowBrickID) connector {
	pa, ra, pb, rb := cpu.Pod, cpu.Rack, mem.Pod, mem.Rack
	if pa == pb {
		return s.pods[pa].link(ra, rb)
	}
	if s.tierConns == nil {
		s.tierConns = make(map[[4]int]connector)
	}
	key := [4]int{pa, ra, pb, rb}
	if t, ok := s.tierConns[key]; ok {
		return t
	}
	t := connector{
		connect: func(a, b topo.PortID) (*optical.Circuit, sim.Duration, error) {
			return s.fabric.ConnectCross(pa, ra, a, pb, rb, b)
		},
		disconnect: s.fabric.DisconnectCross,
	}
	s.tierConns[key] = t
	return t
}

// admitWaves runs a row admission's waves: 2a routes each pod's
// sub-batch to its racks by the locations the row's partition claimed
// (one worker per pod); 2b is the flat commit wave, where every (pod,
// rack) shard across the row attaches on its own worker, so a row of
// many lightly loaded pods still keeps every worker busy; 2c gathers
// each pod's rack shards and runs the pod's cross-rack spills (one
// worker per pod again).
func (s *RowScheduler) admitWaves(workers int) {
	a := &s.admit
	s.wave(workers, a.active, s.admitPlanWave)
	s.commitWave(workers, true, s.admitCommitWave)
	s.wave(workers, a.active, s.admitMergeWave)
}

// evictWaves is admitWaves' teardown twin: each pod splits its shard,
// every (pod, rack) ReleaseBatch runs in the flat wave, and each pod
// runs its cross-rack phase, leaving its first failure in the row's
// shard results.
func (s *RowScheduler) evictWaves(workers int) {
	e := &s.evict
	s.wave(workers, e.active, s.evictPlanWave)
	s.commitWave(workers, false, s.evictCommitWave)
	s.wave(workers, e.active, s.evictMergeWave)
}

// commitWave runs the flat (pod, rack) wave over every rack with a
// non-empty admission (or eviction) sub-batch in the active pods. Rack
// shards of one pod share that pod's indexes, so, as in every wave
// (tier.wave), the links up of the racks, and of their pods, are held
// for the wave; after the join each pod flushes its racks' leaves and
// the row its pods', before any pod- or row-tier pick reads them.
// Every shard writes only its own rack's state.
func (s *RowScheduler) commitWave(workers int, admit bool, fn func(i int)) {
	active := s.evict.active
	if admit {
		active = s.admit.active
	}
	shards := s.shards[:0]
	for _, p := range active {
		ps := s.pods[p]
		counts := ps.evict.counts
		if admit {
			counts = ps.admit.counts
		}
		for r := range ps.racks {
			if counts[r] > 0 {
				shards = append(shards, rackShard{pod: p, rack: r})
			}
		}
	}
	s.shards = shards
	for _, p := range active {
		holdUp(s.pods[p])
	}
	for _, sh := range shards {
		holdUp(s.pods[sh.pod].racks[sh.rack])
	}
	s.fo.each(workers, len(shards), fn)
	for _, sh := range shards {
		releaseUp(s.pods[sh.pod].racks[sh.rack])
	}
	for _, p := range active {
		s.pods[p].flush()
		releaseUp(s.pods[p])
	}
	s.flush()
}

func (s *RowScheduler) repoint(att *Attachment, _ topo.BrickID) (tgl.Entry, sim.Duration, error) {
	// Cross-pod circuits would have to be rebuilt through the row
	// switch; row-tier migration is not modeled yet.
	return tgl.Entry{}, 0, fmt.Errorf("sdm: cannot repoint cross-pod attachment of %q", att.Owner)
}
