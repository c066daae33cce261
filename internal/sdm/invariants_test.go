package sdm

import (
	"testing"

	"repro/internal/brick"
	"repro/internal/sim"
	"repro/internal/topo"
)

// TestCheckInvariantsCatchesCrossHostCorruption: the pod packet
// fallback picks its host circuit from the cross-rack host table, so
// the checker must notice a live host missing from its slot and a slot
// holding anything but live cross circuit attachments.
func TestCheckInvariantsCatchesCrossHostCorruption(t *testing.T) {
	s := buildPodSched(t, 2, 2*brick.GiB, 4, DefaultConfig)
	cpu, _, err := s.ReserveCompute("vm", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	var att *Attachment
	for i := 0; i < 2; i++ {
		if att, _, err = s.AttachRemoteMemory("vm", cpu, 2*brick.GiB); err != nil {
			t.Fatal(err)
		}
	}
	if !att.CrossRack() || att.Mode != ModeCircuit {
		t.Fatal("setup: want a cross-rack circuit attachment")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("clean pod: %v", err)
	}
	rack := s.Rack(cpu.Rack)
	slot := &rack.crossHosts[0][rack.cpuPos(cpu.Brick)]
	live := *slot

	*slot = nil
	if err := s.CheckInvariants(); err == nil {
		t.Fatal("live cross host missing from its slot went unnoticed")
	}
	*slot = append(append([]*Attachment(nil), live...), &Attachment{Owner: "dead"})
	if err := s.CheckInvariants(); err == nil {
		t.Fatal("dead attachment in a cross host slot went unnoticed")
	}
	*slot = live
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("restored pod: %v", err)
	}
}

// TestRowCheckInvariants: the row checker accepts a row holding
// cross-pod attachments (which every per-pod check rejects as foreign)
// and catches a pod's free-core sum that drifted from its rack roots.
func TestRowCheckInvariants(t *testing.T) {
	s := buildRowSched(t, 2, 2, 2*brick.GiB, DefaultConfig)
	cpu, _, err := s.ReserveCompute("vm", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	var att *Attachment
	for i := 0; i < 3; i++ {
		if att, _, err = s.AttachRemoteMemory("vm", cpu, 2*brick.GiB); err != nil {
			t.Fatal(err)
		}
	}
	if !att.CrossPod() {
		t.Fatal("setup: want a cross-pod spill")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("clean row: %v", err)
	}
	if err := s.Pod(cpu.Pod).CheckInvariants(); err == nil {
		t.Fatal("pod check accepted a row-owned attachment")
	}
	s.Pod(1).cpuIdx.root().sumRank++
	if err := s.CheckInvariants(); err == nil {
		t.Fatal("drifted pod free-core sum went unnoticed")
	}
}

// TestCheckInvariantsCatchesPodScreenCorruption: the row's pod screens
// are the pods' index roots, read as leaves of the row's indexes, and a
// pod's rack screens are the racks' roots, read as leaves of the pod's.
// The checker must notice a tier-index leaf or inner node drifting
// either way from an exact recompute, at the pod and at the row.
func TestCheckInvariantsCatchesPodScreenCorruption(t *testing.T) {
	s := buildRowSched(t, 2, 2, 2*brick.GiB, DefaultConfig)
	if _, _, err := s.ReserveCompute("vm", 1, brick.GiB); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("clean row: %v", err)
	}
	active := int(brick.PowerActive)
	for _, ix := range []struct {
		name string
		idx  *placementIndex
	}{
		{"pod 0 compute", s.Pod(0).cpuIdx},
		{"pod 1 memory", s.Pod(1).memIdx},
		{"row compute", s.cpuIdx},
		{"row memory", s.memIdx},
	} {
		for _, at := range []struct {
			name string
			nd   *node
		}{{"leaf", ix.idx.leaf(0)}, {"inner node", ix.idx.root()}} {
			nd := at.nd
			for _, f := range []*int64{&nd.maxFitA[active], &nd.maxFitB[active], &nd.maxRank, &nd.sumRank} {
				for _, d := range []int64{1, -1} {
					*f += d
					if err := s.CheckInvariants(); err == nil {
						t.Fatalf("%s index: %s drifted by %d went unnoticed", ix.name, at.name, d)
					}
					*f -= d
				}
			}
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("restored row: %v", err)
	}
}

// TestPodComputeScreenSound: over random churn, a pod's compute screen
// never rejects a request its confirming pick would place — false
// means no brick in the pod fits — and it does reject some.
func TestPodComputeScreenSound(t *testing.T) {
	for _, policy := range []Policy{PolicyPowerAware, PolicyFirstFit, PolicySpread} {
		s := buildSeqRow(t, policy)
		rng := sim.NewRand(5)
		type vm struct {
			cpu   topo.RowBrickID
			vcpus int
			local brick.Bytes
		}
		var live []vm
		rejected := 0
		for op := 0; op < 1500; op++ {
			if len(live) > 0 && rng.Intn(10) < 3 {
				k := rng.Intn(len(live))
				if err := s.ReleaseCompute(live[k].cpu, live[k].vcpus, live[k].local); err != nil {
					t.Fatal(err)
				}
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
			} else {
				v, m := 1+rng.Intn(3), brick.Bytes(1+rng.Intn(3))*brick.GiB
				if cpu, _, err := s.ReserveCompute("", v, m); err == nil {
					live = append(live, vm{cpu, v, m})
				}
			}
			for p, ps := range s.pods {
				for v := 1; v <= 4; v++ {
					for m := brick.Bytes(0); m <= 4*brick.GiB; m += brick.GiB {
						if ps.canPlaceCompute(v, m) {
							continue
						}
						rejected++
						if loc, ok := ps.pickComputeIn(v, m, false); ok {
							t.Fatalf("%v op %d: pod %d screen rejects (%d, %v), but %v fits", policy, op, p, v, m, loc)
						}
					}
				}
			}
		}
		if rejected == 0 {
			t.Fatalf("%v: the screen never rejected a request", policy)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}
