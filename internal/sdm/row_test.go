package sdm

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/brick"
	"repro/internal/optical"
	"repro/internal/sim"
	"repro/internal/topo"
)

// buildRowSched assembles a row of tiny pods (racks with one compute
// and one memory brick each) for scheduler tests.
func buildRowSched(t *testing.T, pods, racks int, memCap brick.Bytes, cfg Config) *RowScheduler {
	t.Helper()
	return buildRowSchedUplinks(t, pods, racks, memCap, optical.DefaultRowProfile.UplinksPerPod, cfg)
}

// buildRowSchedUplinks is buildRowSched with a configurable row-switch
// uplink count per pod.
func buildRowSchedUplinks(t *testing.T, pods, racks int, memCap brick.Bytes, uplinks int, cfg Config) *RowScheduler {
	t.Helper()
	row, err := topo.BuildRow(pods, racks, topo.BuildSpec{
		Trays: 1, ComputePerTray: 1, MemoryPerTray: 1, AccelPerTray: 0, PortsPerBrick: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	podFabrics := make([]*optical.PodFabric, pods)
	for p := range podFabrics {
		fabrics := make([]*optical.Fabric, racks)
		for i := range fabrics {
			sw, err := optical.NewSwitch(optical.SwitchConfig{
				Ports: 16, InsertionLossDB: 1, PortPowerW: 0.1, ReconfigTime: 25 * sim.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			fabrics[i] = optical.NewFabric(sw)
		}
		if podFabrics[p], err = optical.NewPodFabric(optical.DefaultPodProfile, fabrics); err != nil {
			t.Fatal(err)
		}
	}
	prof := optical.DefaultRowProfile
	prof.UplinksPerPod = uplinks
	rf, err := optical.NewRowFabric(prof, podFabrics)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewRowScheduler(row, rf, BrickConfigs{Memory: brick.MemoryConfig{Capacity: memCap}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// rowFingerprint renders the row's complete observable state — every
// rack's snapshot plus the row fabric's uplink and circuit census — so
// tests can assert byte-identical outcomes. With counters false the
// rack request/failure counters are zeroed: a failed batch
// legitimately spends counters (the sequential path would too), but
// must restore everything else byte-identically.
func rowFingerprint(t *testing.T, s *RowScheduler, counters bool) string {
	t.Helper()
	var b strings.Builder
	for p := 0; p < s.Pods(); p++ {
		fmt.Fprintf(&b, "uplinks[%d]=%d\n", p, s.Fabric().FreeUplinks(p))
		for r := 0; r < s.Pod(p).Racks(); r++ {
			snap := s.Pod(p).Rack(r).Snapshot()
			if !counters {
				snap.Requests, snap.Failures = 0, 0
			}
			data, err := snap.JSON()
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "pod%d/rack%d: %s\n", p, r, data)
		}
	}
	fmt.Fprintf(&b, "rowCircuits=%d\n", s.Fabric().CrossCircuits())
	return b.String()
}

// TestRowPacketFallbackAcrossTier exhausts the row uplinks so the next
// cross-pod spill rides an existing cross-pod circuit in packet mode.
func TestRowPacketFallbackAcrossTier(t *testing.T) {
	cfg := DefaultConfig
	cfg.PacketFallback = true
	s := buildRowSchedUplinks(t, 2, 1, 4*brick.GiB, 1, cfg)
	cpu, _, err := s.ReserveCompute("vm", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Fill the home pod's 4 GiB brick, then spill twice: the first
	// takes the only uplink pair, the second must ride it.
	if _, _, err := s.AttachRemoteMemory("vm", cpu, 4*brick.GiB); err != nil {
		t.Fatal(err)
	}
	host, _, err := s.AttachRemoteMemory("vm", cpu, brick.GiB)
	if err != nil {
		t.Fatal(err)
	}
	if !host.CrossPod() || host.Mode != ModeCircuit {
		t.Fatal("expected a cross-pod circuit spill first")
	}
	if free := s.Fabric().FreeUplinks(0); free != 0 {
		t.Fatalf("home pod free uplinks = %d, want 0", free)
	}
	rider, lat, err := s.AttachRemoteMemory("vm", cpu, brick.GiB)
	if err != nil {
		t.Fatal(err)
	}
	if rider.Mode != ModePacket || !rider.CrossPod() || rider.Circuit != host.Circuit {
		t.Fatalf("expected a packet-mode rider on the cross-pod circuit, got mode=%v pod=%d", rider.Mode, rider.MemPod)
	}
	if rider.MemPod != host.MemPod || rider.MemRack != host.MemRack || rider.Segment.Brick != host.Segment.Brick {
		t.Fatal("rider's memory end is not its host's")
	}
	// The spill decision plus the fallback's own table pushes — the same
	// composition the rack-local packet fallback charges.
	if want := 2*cfg.DecisionLatency + 2*cfg.AgentRTT; lat != want {
		t.Fatalf("packet fallback latency = %v, want %v", lat, want)
	}
	if _, _, spills := s.Stats(); spills != 2 {
		t.Fatalf("row spills = %d, want 2", spills)
	}
	// Rider accounting routes through the rack controller too.
	if n := s.Pod(0).Rack(0).Riders(host); n != 1 {
		t.Fatalf("riders = %d, want 1", n)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The ridden circuit refuses teardown until the rider detaches.
	if _, err := s.DetachRemoteMemory(host); err == nil {
		t.Fatal("ridden cross-pod circuit torn down")
	}
	if _, err := s.DetachRemoteMemory(rider); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DetachRemoteMemory(host); err != nil {
		t.Fatal(err)
	}
	if n := s.Fabric().CrossCircuits(); n != 0 {
		t.Fatalf("cross-pod circuits = %d after teardown, want 0", n)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRowSpillCrossPod is the row acceptance scenario: a VM whose home
// pod cannot satisfy a memory request attaches remote memory in
// another pod through the row switch, with the row tier's extra hops
// and fiber on top of a pod-tier spill.
func TestRowSpillCrossPod(t *testing.T) {
	s := buildRowSched(t, 2, 2, 2*brick.GiB, DefaultConfig)

	cpu, _, err := s.ReserveCompute("vm", 2, brick.GiB)
	if err != nil {
		t.Fatal(err)
	}
	if cpu.Pod != 0 || cpu.Rack != 0 {
		t.Fatalf("placement started at pod %d rack %d, want 0/0", cpu.Pod, cpu.Rack)
	}
	// Two 2 GiB attachments fill the home pod's memory (one brick per
	// rack).
	local, _, err := s.AttachRemoteMemory("vm", cpu, 2*brick.GiB)
	if err != nil {
		t.Fatal(err)
	}
	if local.CrossPod() || local.CrossRack() {
		t.Fatal("first attachment should be rack-local")
	}
	podSpill, _, err := s.AttachRemoteMemory("vm", cpu, 2*brick.GiB)
	if err != nil {
		t.Fatal(err)
	}
	if podSpill.CrossPod() || !podSpill.CrossRack() {
		t.Fatalf("second attachment: pod %d->%d rack %d->%d, want a pod-tier cross-rack spill",
			podSpill.CPUPod, podSpill.MemPod, podSpill.CPURack, podSpill.MemRack)
	}
	// The third cannot be satisfied pod-locally and must cross the row.
	rowSpill, lat, err := s.AttachRemoteMemory("vm", cpu, 2*brick.GiB)
	if err != nil {
		t.Fatal(err)
	}
	if !rowSpill.CrossPod() || rowSpill.MemPod != 1 || rowSpill.Mode != ModeCircuit {
		t.Fatalf("row spill: CPUPod=%d MemPod=%d mode=%v, want cross-pod circuit into pod 1",
			rowSpill.CPUPod, rowSpill.MemPod, rowSpill.Mode)
	}
	if lat <= 0 {
		t.Fatal("row spill orchestration latency must be positive")
	}
	if rowSpill.Circuit.Hops <= podSpill.Circuit.Hops {
		t.Fatalf("cross-pod hops %d not above cross-rack %d", rowSpill.Circuit.Hops, podSpill.Circuit.Hops)
	}
	if rowSpill.Circuit.FiberMeters <= podSpill.Circuit.FiberMeters {
		t.Fatalf("cross-pod fiber %v not above cross-rack %v", rowSpill.Circuit.FiberMeters, podSpill.Circuit.FiberMeters)
	}
	if _, _, spills := s.Stats(); spills != 1 {
		t.Fatalf("row spills = %d, want 1", spills)
	}
	if atts := s.Attachments("vm"); len(atts) != 3 || atts[2] != rowSpill {
		t.Fatalf("row attachments = %d, want 3 ending in the row spill", len(atts))
	}

	// Teardown routes by attachment: the row spill through the row tier,
	// the rest through their pod.
	for _, att := range []*Attachment{rowSpill, podSpill, local} {
		if _, err := s.DetachRemoteMemory(att); err != nil {
			t.Fatal(err)
		}
	}
	if s.Fabric().CrossCircuits() != 0 {
		t.Fatalf("cross circuits = %d after teardown", s.Fabric().CrossCircuits())
	}
	if atts := s.Attachments("vm"); atts != nil {
		t.Fatalf("attachments = %d after teardown", len(atts))
	}
}

// TestRowAdmitBatchOfOneMatchesSequential: a row admission batch of one
// must reproduce the sequential ReserveCompute + AttachRemoteMemory
// path byte-for-byte — same placements, same latencies, same counters,
// same final state — including requests that spill cross-rack and
// cross-pod.
func TestRowAdmitBatchOfOneMatchesSequential(t *testing.T) {
	seqRow := buildRowSched(t, 2, 2, 2*brick.GiB, DefaultConfig)
	batRow := buildRowSched(t, 2, 2, 2*brick.GiB, DefaultConfig)

	// Six scale-ups of 1 GiB from pod 0 rack 0: two rack-local, two
	// cross-rack, two cross-pod.
	cpuSeq, _, err := seqRow.ReserveCompute("vm", 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	cpuBat, _, err := batRow.ReserveCompute("vm", 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cpuSeq != cpuBat {
		t.Fatalf("compute placement diverges before the test: %v vs %v", cpuSeq, cpuBat)
	}
	for i := 0; i < 6; i++ {
		owner := fmt.Sprintf("vm-up-%d", i)
		attSeq, latSeq, errSeq := seqRow.AttachRemoteMemory(owner, cpuSeq, brick.GiB)
		res, errBat := batRow.AdmitBatch([]AdmitRequest{{
			Owner: owner, Remote: brick.GiB, CPU: cpuBat.Brick, Rack: cpuBat.Rack, Pod: cpuBat.Pod,
		}}, 1)
		if (errSeq == nil) != (errBat == nil) {
			t.Fatalf("attach %d: sequential err %v, batch err %v", i, errSeq, errBat)
		}
		if errSeq != nil {
			continue
		}
		attBat := res[0].Att
		if attSeq.CPUPod != attBat.CPUPod || attSeq.MemPod != attBat.MemPod ||
			attSeq.CPURack != attBat.CPURack || attSeq.MemRack != attBat.MemRack ||
			attSeq.Segment.Brick != attBat.Segment.Brick || attSeq.Segment.Offset != attBat.Segment.Offset ||
			attSeq.Mode != attBat.Mode || attSeq.seq != attBat.seq {
			t.Fatalf("attach %d diverges:\nsequential: %+v\nbatch:      %+v", i, attSeq, attBat)
		}
		if latSeq != res[0].AttachLat {
			t.Fatalf("attach %d latency: sequential %v, batch %v", i, latSeq, res[0].AttachLat)
		}
	}

	sr, sf, ss := seqRow.Stats()
	br, bf, bs := batRow.Stats()
	if sr != br || sf != bf || ss != bs {
		t.Fatalf("row counters diverge: seq %d/%d/%d, batch %d/%d/%d", sr, sf, ss, br, bf, bs)
	}
	for p := 0; p < 2; p++ {
		sr, sf, ss := seqRow.Pod(p).Stats()
		br, bf, bs := batRow.Pod(p).Stats()
		if sr != br || sf != bf || ss != bs {
			t.Fatalf("pod %d counters diverge: seq %d/%d/%d, batch %d/%d/%d", p, sr, sf, ss, br, bf, bs)
		}
	}
	if a, b := rowFingerprint(t, seqRow, true), rowFingerprint(t, batRow, true); a != b {
		t.Fatalf("state diverges:\nsequential:\n%s\nbatch:\n%s", a, b)
	}
}

// TestRowAdmitBatchDeterministicAcrossWorkers: the pod-parallel
// planning phase must be byte-identical at any worker count.
func TestRowAdmitBatchDeterministicAcrossWorkers(t *testing.T) {
	type placement struct {
		pod, rack int
		cpu       topo.BrickID
		memPod    int
		mode      AttachMode
		hasAtt    bool
	}
	var prev []placement
	var prevFP string
	for wi, workers := range []int{1, 4, 8} {
		s := buildRowSched(t, 4, 2, 2*brick.GiB, DefaultConfig)
		reqs := make([]AdmitRequest, 12)
		for i := range reqs {
			reqs[i] = AdmitRequest{Owner: fmt.Sprintf("vm%02d", i), VCPUs: 1, Remote: brick.GiB}
		}
		out, err := s.AdmitBatch(reqs, workers)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]placement, len(out))
		for i, res := range out {
			got[i] = placement{pod: res.Pod, rack: res.Rack, cpu: res.CPU, mode: ModeCircuit, hasAtt: res.Att != nil}
			if res.Att != nil {
				got[i].memPod = res.Att.MemPod
				got[i].mode = res.Att.Mode
			}
		}
		fp := rowFingerprint(t, s, true)
		if wi > 0 {
			for i := range got {
				if got[i] != prev[i] {
					t.Fatalf("workers=%d: placement %d diverges: %+v vs %+v", workers, i, got[i], prev[i])
				}
			}
			if fp != prevFP {
				t.Fatalf("workers=%d: state fingerprint diverges", workers)
			}
		}
		prev, prevFP = got, fp
	}
}

// TestRowEvictBatchRollsBack: a failing eviction must restore the row
// exactly — including a cross-pod circuit torn down earlier in the
// same batch (the row-phase undo path).
func TestRowEvictBatchRollsBack(t *testing.T) {
	s := buildRowSched(t, 2, 2, 2*brick.GiB, DefaultConfig)

	// Two VMs on pod 0, each with a cross-pod attachment: vm-a's third
	// attachment overflows pod 0 (2 racks x 2 GiB), so vm-b's single
	// attachment crosses pods too.
	mk := func(owner string, n int) (topo.RowBrickID, []*Attachment) {
		cpu, _, err := s.ReserveCompute(owner, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		var atts []*Attachment
		for i := 0; i < n; i++ {
			att, _, err := s.AttachRemoteMemory(owner, cpu, 2*brick.GiB)
			if err != nil {
				t.Fatal(err)
			}
			atts = append(atts, att)
		}
		return cpu, atts
	}
	cpuA, attsA := mk("vm-a", 3)
	cpuB, attsB := mk("vm-b", 1)
	if !attsA[2].CrossPod() || !attsB[0].CrossPod() {
		t.Fatalf("setup: want both last attachments cross-pod (a: %v, b: %v)",
			attsA[2].CrossPod(), attsB[0].CrossPod())
	}

	// Stale attachment: vm-b's cross-pod attachment is detached out of
	// band, then named in the batch. vm-a's teardown (including its
	// cross-pod circuit) commits first and must roll back.
	if _, err := s.DetachRemoteMemory(attsB[0]); err != nil {
		t.Fatal(err)
	}
	// A batch committed on a rack the failing batch never reaches leaves
	// that rack's journal full: the rollback must not replay it.
	rackC := s.Pod(1).Rack(1)
	cpuC := topo.RowBrickID{Pod: 1, Rack: 1, Brick: rackC.computeOrder[0]}
	attC, _, err := s.AttachRemoteMemory("vm-c", cpuC, brick.GiB)
	if err != nil {
		t.Fatal(err)
	}
	if attC.CrossRack() || attC.CrossPod() {
		t.Fatal("setup: want a rack-local attachment")
	}
	if _, err := s.EvictBatch([]EvictRequest{{Owner: "vm-c", CPU: cpuC.Brick, Rack: 1, Pod: 1, Atts: []*Attachment{attC}}}, 2); err != nil {
		t.Fatal(err)
	}
	if len(rackC.undoLog) == 0 {
		t.Fatal("setup: want the committed batch's journal left on its rack")
	}
	before := rowFingerprint(t, s, false)

	reqs := []EvictRequest{
		{Owner: "vm-a", CPU: cpuA.Brick, Rack: cpuA.Rack, Pod: cpuA.Pod, VCPUs: 1, Atts: []*Attachment{attsA[2], attsA[1], attsA[0]}},
		{Owner: "vm-b", CPU: cpuB.Brick, Rack: cpuB.Rack, Pod: cpuB.Pod, VCPUs: 1, Atts: []*Attachment{attsB[0]}},
	}
	if _, err := s.EvictBatch(reqs, 2); err == nil {
		t.Fatal("eviction with a stale attachment must fail")
	} else if !strings.Contains(err.Error(), "rolled back at request 1") {
		t.Fatalf("unexpected abort error: %v", err)
	}
	if after := rowFingerprint(t, s, false); after != before {
		t.Fatalf("rollback is not exact:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	if atts := s.Attachments("vm-c"); atts != nil {
		t.Fatalf("rollback replayed a committed batch's journal: vm-c holds %d attachments", len(atts))
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("after rollback: %v", err)
	}

	// Dropping the stale attachment, the batch commits and the row
	// drains completely.
	reqs[1].Atts = nil
	if _, err := s.EvictBatch(reqs, 2); err != nil {
		t.Fatal(err)
	}
	if s.Fabric().CrossCircuits() != 0 {
		t.Fatalf("cross circuits = %d after eviction", s.Fabric().CrossCircuits())
	}
	if atts := s.Attachments("vm-a"); atts != nil {
		t.Fatalf("vm-a attachments = %d after eviction", len(atts))
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("after eviction: %v", err)
	}
}

// TestRowEvictBatchOfOneMatchesSequential: an eviction batch of one
// must leave the same state as the per-attachment sequential teardown.
func TestRowEvictBatchOfOneMatchesSequential(t *testing.T) {
	build := func() (*RowScheduler, topo.RowBrickID, []*Attachment) {
		s := buildRowSched(t, 2, 2, 2*brick.GiB, DefaultConfig)
		cpu, _, err := s.ReserveCompute("vm", 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		var atts []*Attachment
		for i := 0; i < 3; i++ {
			att, _, err := s.AttachRemoteMemory("vm", cpu, 2*brick.GiB)
			if err != nil {
				t.Fatal(err)
			}
			atts = append(atts, att)
		}
		return s, cpu, atts
	}

	seqRow, cpuSeq, attsSeq := build()
	for i := len(attsSeq) - 1; i >= 0; i-- {
		if _, err := seqRow.DetachRemoteMemory(attsSeq[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := seqRow.ReleaseCompute(cpuSeq, 1, 0); err != nil {
		t.Fatal(err)
	}

	batRow, cpuBat, attsBat := build()
	out, err := batRow.EvictBatch([]EvictRequest{{
		Owner: "vm", CPU: cpuBat.Brick, Rack: cpuBat.Rack, Pod: cpuBat.Pod, VCPUs: 1,
		Atts: []*Attachment{attsBat[2], attsBat[1], attsBat[0]},
	}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Detached != 3 {
		t.Fatalf("detached = %d, want 3", out[0].Detached)
	}
	if a, b := rowFingerprint(t, seqRow, true), rowFingerprint(t, batRow, true); a != b {
		t.Fatalf("state diverges:\nsequential:\n%s\nbatch:\n%s", a, b)
	}
}

// TestRowSpillOrderingMatchesLinearReference is the property test: on
// a randomized admit/detach trace, the indexed row — aggregate screens,
// segment-tree picks, batch planning — must make exactly the placement
// decisions of the linear-scan reference scheduler, across the whole
// rack -> pod -> row spill cascade, for both packing and spread
// policies.
func TestRowSpillOrderingMatchesLinearReference(t *testing.T) {
	for _, policy := range []Policy{PolicyPowerAware, PolicySpread} {
		cfgIdx := DefaultConfig
		cfgIdx.Policy = policy
		cfgLin := cfgIdx
		cfgLin.Scan = ScanLinear
		idx := buildRowSched(t, 3, 2, 4*brick.GiB, cfgIdx)
		lin := buildRowSched(t, 3, 2, 4*brick.GiB, cfgLin)

		rng := sim.NewRand(42)
		type vm struct {
			owner            string
			cpuIdx, cpuLin   topo.RowBrickID
			attsIdx, attsLin []*Attachment
		}
		var vms []*vm
		for step := 0; step < 200; step++ {
			switch op := rng.Intn(10); {
			case op < 3: // boot a VM
				v := &vm{owner: fmt.Sprintf("p%v-vm%03d", policy, step)}
				var errI, errL error
				v.cpuIdx, _, errI = idx.ReserveCompute(v.owner, 1, 0)
				v.cpuLin, _, errL = lin.ReserveCompute(v.owner, 1, 0)
				if (errI == nil) != (errL == nil) {
					t.Fatalf("%v step %d: reserve diverges: %v vs %v", policy, step, errI, errL)
				}
				if errI != nil {
					continue
				}
				if v.cpuIdx != v.cpuLin {
					t.Fatalf("%v step %d: compute pick %v vs %v", policy, step, v.cpuIdx, v.cpuLin)
				}
				vms = append(vms, v)
			case op < 8: // attach memory to a random VM
				if len(vms) == 0 {
					continue
				}
				v := vms[rng.Intn(len(vms))]
				size := brick.Bytes(rng.Intn(3)+1) * brick.GiB / 2
				attI, _, errI := idx.AttachRemoteMemory(v.owner, v.cpuIdx, size)
				attL, _, errL := lin.AttachRemoteMemory(v.owner, v.cpuLin, size)
				if (errI == nil) != (errL == nil) {
					t.Fatalf("%v step %d: attach diverges: %v vs %v", policy, step, errI, errL)
				}
				if errI != nil {
					continue
				}
				if attI.CPUPod != attL.CPUPod || attI.MemPod != attL.MemPod ||
					attI.CPURack != attL.CPURack || attI.MemRack != attL.MemRack ||
					attI.Segment.Brick != attL.Segment.Brick || attI.Segment.Offset != attL.Segment.Offset ||
					attI.Mode != attL.Mode {
					t.Fatalf("%v step %d (size %v): spill diverges:\nindexed: %+v\nlinear:  %+v",
						policy, step, size, attI, attL)
				}
				v.attsIdx = append(v.attsIdx, attI)
				v.attsLin = append(v.attsLin, attL)
			default: // detach a random attachment (newest first per VM)
				if len(vms) == 0 {
					continue
				}
				v := vms[rng.Intn(len(vms))]
				if len(v.attsIdx) == 0 {
					continue
				}
				n := len(v.attsIdx) - 1
				if _, err := idx.DetachRemoteMemory(v.attsIdx[n]); err != nil {
					t.Fatalf("%v step %d: indexed detach: %v", policy, step, err)
				}
				if _, err := lin.DetachRemoteMemory(v.attsLin[n]); err != nil {
					t.Fatalf("%v step %d: linear detach: %v", policy, step, err)
				}
				v.attsIdx, v.attsLin = v.attsIdx[:n], v.attsLin[:n]
			}
		}
		if a, b := rowFingerprint(t, idx, true), rowFingerprint(t, lin, true); a != b {
			t.Fatalf("%v: final state diverges between indexed and linear", policy)
		}
	}
}

// TestRowCensusMatchesExact: the census read at the row's index roots
// must match the exact brick walk through power transitions.
func TestRowCensusMatchesExact(t *testing.T) {
	s := buildRowSched(t, 3, 2, 2*brick.GiB, DefaultConfig)
	check := func(when string) {
		t.Helper()
		for _, kind := range []topo.BrickKind{topo.KindCompute, topo.KindMemory} {
			var exact PowerCensus
			for _, p := range s.pods {
				for _, r := range p.racks {
					c := r.Census(kind)
					exact.Off += c.Off
					exact.Idle += c.Idle
					exact.Active += c.Active
				}
			}
			if got := s.Census(kind); got != exact {
				t.Fatalf("%s: Census(%v) = %+v, exact %+v", when, kind, got, exact)
			}
		}
	}
	check("fresh")
	s.PowerOnAll()
	check("all on")
	cpu, _, err := s.ReserveCompute("vm", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.AttachRemoteMemory("vm", cpu, 2*brick.GiB); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.AttachRemoteMemory("vm", cpu, 2*brick.GiB); err != nil {
		t.Fatal(err)
	}
	check("loaded")
	s.PowerOffIdle()
	check("after power-off sweep")
}
