package sdm

import (
	"testing"

	"repro/internal/brick"
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
// and catches a pod summary that drifted from its rack roots.
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
	s.Pod(1).agg.freeCores++
	if err := s.CheckInvariants(); err == nil {
		t.Fatal("drifted pod free-core summary went unnoticed")
	}
}
