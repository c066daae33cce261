package sdm

import (
	"fmt"
	"testing"

	"repro/internal/brick"
)

// TestAttachmentQueriesAllocFree pins the append-into-dst attachment
// queries at zero allocations per call once the destination has
// capacity — the contract migration pre-flights and the rebalancer
// rely on to stop allocating per sweep.
func TestAttachmentQueriesAllocFree(t *testing.T) {
	cfg := DefaultConfig
	cfg.PacketFallback = true
	s := buildBatchPod(t, 2, 2, 2, 8*brick.GiB, cfg)
	first, err := s.AdmitBatch([]AdmitRequest{
		{Owner: "vm", VCPUs: 1, LocalMem: brick.GiB, Remote: brick.GiB},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AdmitBatch([]AdmitRequest{
		{Owner: "vm", VCPUs: 0, Remote: brick.GiB, CPU: first[0].CPU, Rack: first[0].Rack},
	}, 1); err != nil {
		t.Fatal(err)
	}
	dst := make([]*Attachment, 0, 16)
	if n := testing.AllocsPerRun(100, func() {
		dst = s.AppendAttachments(dst[:0], "vm")
	}); n != 0 {
		t.Fatalf("PodScheduler.AppendAttachments allocates %.0f/op, want 0", n)
	}
	if len(dst) == 0 {
		t.Fatal("AppendAttachments returned no attachments")
	}
	rack := s.Rack(0)
	if n := testing.AllocsPerRun(100, func() {
		dst = rack.AppendAttachments(dst[:0], "vm")
	}); n != 0 {
		t.Fatalf("Controller.AppendAttachments allocates %.0f/op, want 0", n)
	}
}

// TestRebalanceSweepAllocFree pins a no-promotion rebalancing sweep at
// zero allocations once its snapshot scratch is warm: a periodic
// background rebalancer costs nothing while there is nothing to do.
func TestRebalanceSweepAllocFree(t *testing.T) {
	cfg := DefaultConfig
	cfg.PacketFallback = true
	s := buildPodSched(t, 2, 2*brick.GiB, 4, cfg)
	cpu, _, err := s.ReserveCompute("vm", 1, brick.GiB)
	if err != nil {
		t.Fatal(err)
	}
	// Fill the home rack's memory, then spill cross-rack; the home rack
	// stays full, so every sweep skips the spill with no-room.
	if _, _, err := s.AttachRemoteMemory("vm", cpu, 2*brick.GiB); err != nil {
		t.Fatal(err)
	}
	spill, _, err := s.AttachRemoteMemory("vm", cpu, brick.GiB)
	if err != nil {
		t.Fatal(err)
	}
	if !spill.CrossRack() {
		t.Fatal("expected a cross-rack spill")
	}
	s.Rebalance(0) // warm the scratch buffer
	if n := testing.AllocsPerRun(50, func() {
		rep := s.Rebalance(0)
		if rep.SkippedNoRoom != 1 || rep.Promoted != 0 {
			t.Fatalf("sweep did not skip the spill: %+v", rep)
		}
	}); n != 0 {
		t.Fatalf("no-op rebalance sweep allocates %.0f/op, want 0", n)
	}
}

// TestPerRequestAttachDetachAllocs pins the per-request paths to the
// inline attach and detach bodies at every tier: a warmed attach +
// detach cycle — rack-local, spilled cross-rack in a pod, and spilled
// cross-pod in a row — allocates at most one object, the Attachment
// the caller keeps, since per-request detaches never recycle it into
// the arena.
func TestPerRequestAttachDetachAllocs(t *testing.T) {
	pin := func(t *testing.T, attach func() (*Attachment, error), detach func(*Attachment) error, spill func(*Attachment) bool) {
		t.Helper()
		cycle := func() {
			att, err := attach()
			if err != nil {
				t.Fatal(err)
			}
			if !spill(att) {
				t.Fatalf("attachment on racks %d→%d, pods %d→%d: wrong tier", att.CPURack, att.MemRack, att.CPUPod, att.MemPod)
			}
			if err := detach(att); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			cycle() // warm the owner table, segment and circuit arenas
		}
		if n := testing.AllocsPerRun(50, cycle); n > 1 {
			t.Fatalf("per-request attach+detach cycle allocates %.1f/op, want <= 1", n)
		}
	}
	t.Run("rack", func(t *testing.T) {
		c := buildBatchPod(t, 1, 2, 2, 4*brick.GiB, DefaultConfig).Rack(0)
		cpu, _, err := c.ReserveCompute("vm", 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		pin(t, func() (*Attachment, error) {
			att, _, err := c.AttachRemoteMemory("vm", cpu, brick.GiB/4)
			return att, err
		}, func(att *Attachment) error {
			_, err := c.DetachRemoteMemory(att)
			return err
		}, func(att *Attachment) bool { return att.cross == nil })
		if c.batch != nil {
			t.Fatal("per-request calls built batch state")
		}
	})
	t.Run("pod", func(t *testing.T) {
		s := buildPodSched(t, 2, 4*brick.GiB, 2, DefaultConfig)
		cpu, _, err := s.ReserveCompute("vm", 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Fill the home rack, so every cycle spills to the other one.
		if _, _, err := s.AttachRemoteMemory("vm", cpu, 4*brick.GiB); err != nil {
			t.Fatal(err)
		}
		pin(t, func() (*Attachment, error) {
			att, _, err := s.AttachRemoteMemory("vm", cpu, brick.GiB/4)
			return att, err
		}, func(att *Attachment) error {
			_, err := s.DetachRemoteMemory(att)
			return err
		}, (*Attachment).CrossRack)
	})
	t.Run("pod-packet", func(t *testing.T) {
		cfg := DefaultConfig
		cfg.PacketFallback = true
		s := buildPodSched(t, 2, 4*brick.GiB, 1, cfg)
		cpu, _, err := s.ReserveCompute("vm", 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Fill the home rack, then hold a cross-rack host circuit on the
		// rack's only uplink: every cycle's spill finds the uplinks
		// exhausted and rides the host in packet mode.
		if _, _, err := s.AttachRemoteMemory("vm", cpu, 4*brick.GiB); err != nil {
			t.Fatal(err)
		}
		host, _, err := s.AttachRemoteMemory("vm", cpu, brick.GiB)
		if err != nil {
			t.Fatal(err)
		}
		if !host.CrossRack() || host.Mode != ModeCircuit {
			t.Fatal("setup: want a cross-rack host circuit")
		}
		pin(t, func() (*Attachment, error) {
			att, _, err := s.AttachRemoteMemory("vm", cpu, brick.GiB/4)
			return att, err
		}, func(att *Attachment) error {
			_, err := s.DetachRemoteMemory(att)
			return err
		}, func(att *Attachment) bool { return att.CrossRack() && att.Mode == ModePacket })
	})
	t.Run("row", func(t *testing.T) {
		s := buildRowSched(t, 2, 1, 4*brick.GiB, DefaultConfig)
		cpu, _, err := s.ReserveCompute("vm", 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Fill the home pod, so every cycle spills to the other one.
		if _, _, err := s.AttachRemoteMemory("vm", cpu, 4*brick.GiB); err != nil {
			t.Fatal(err)
		}
		pin(t, func() (*Attachment, error) {
			att, _, err := s.AttachRemoteMemory("vm", cpu, brick.GiB/4)
			return att, err
		}, func(att *Attachment) error {
			_, err := s.DetachRemoteMemory(att)
			return err
		}, (*Attachment).CrossPod)
	})
}

// steadyChurn runs warmed admit→evict cycles over caller-held buffers
// and returns the amortised allocations per full cycle. Every cycle
// admits the same owners and evicts them again, so the schedulers'
// arenas (attachments, circuits, segments), interned owner IDs and
// batch scratch all reach steady state during the warm-up cycles.
func steadyChurn(t *testing.T, admit func([]AdmitRequest, []AdmitResult) error,
	evict func([]EvictRequest, []EvictResult) error, reqs []AdmitRequest, workers int) float64 {
	t.Helper()
	aout := make([]AdmitResult, len(reqs))
	ereqs := make([]EvictRequest, len(reqs))
	for i := range ereqs {
		ereqs[i].Atts = make([]*Attachment, 1)
	}
	eout := make([]EvictResult, len(reqs))
	cycle := func() {
		if err := admit(reqs, aout); err != nil {
			t.Fatal(err)
		}
		for i := range reqs {
			ereqs[i] = EvictRequest{
				Owner: reqs[i].Owner, CPU: aout[i].CPU, Rack: aout[i].Rack, Pod: aout[i].Pod,
				VCPUs: reqs[i].VCPUs, LocalMem: reqs[i].LocalMem, Atts: ereqs[i].Atts,
			}
			ereqs[i].Atts[0] = aout[i].Att
		}
		if err := evict(ereqs, eout); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		cycle() // warm arenas, interning tables and batch scratch
	}
	return testing.AllocsPerRun(10, cycle)
}

// TestAdmitEvictSteadyStateAllocFree pins the tentpole contract of the
// dense-ID data plane: once warm, a steady admit→evict churn through
// the group-commit engines allocates nothing per cycle at either tier,
// under both placement policies. Serial batches (workers=1) must be
// exactly alloc-free; the parallel paths are covered separately with an
// amortised bound, since goroutine fan-out itself allocates.
//
// The nospec=false/true subtest labels are kept from when a speculative
// partitioner could be switched off. That path is gone and, at
// workers=1, never engaged, so both legs now run the one serial engine;
// the labels keep the per-configuration test IDs stable.
func TestAdmitEvictSteadyStateAllocFree(t *testing.T) {
	policies := []struct {
		name string
		pol  Policy
	}{{"firstfit", PolicyFirstFit}, {"spread", PolicySpread}}
	for _, pol := range policies {
		for _, leg := range []string{"nospec=false", "nospec=true"} {
			name := pol.name + "/" + leg
			t.Run("pod/"+name, func(t *testing.T) {
				cfg := DefaultConfig
				cfg.Policy = pol.pol
				s := buildBatchPod(t, 2, 4, 4, 8*brick.GiB, cfg)
				reqs := make([]AdmitRequest, 6)
				for i := range reqs {
					reqs[i] = AdmitRequest{
						Owner: fmt.Sprintf("churn-%d", i), VCPUs: 1, Remote: brick.GiB / 4,
					}
				}
				n := steadyChurn(t,
					func(r []AdmitRequest, o []AdmitResult) error { return s.AdmitBatchInto(r, o, 1) },
					func(r []EvictRequest, o []EvictResult) error { return s.EvictBatchInto(r, o, 1) },
					reqs, 1)
				if n != 0 {
					t.Fatalf("pod admit+evict cycle allocates %.1f/op, want 0", n)
				}
			})
			t.Run("row/"+name, func(t *testing.T) {
				cfg := DefaultConfig
				cfg.Policy = pol.pol
				s := buildRowSched(t, 2, 2, 8*brick.GiB, cfg)
				reqs := make([]AdmitRequest, 4)
				for i := range reqs {
					reqs[i] = AdmitRequest{
						Owner: fmt.Sprintf("churn-%d", i), VCPUs: 1, Remote: brick.GiB / 4,
					}
				}
				n := steadyChurn(t,
					func(r []AdmitRequest, o []AdmitResult) error { return s.AdmitBatchInto(r, o, 1) },
					func(r []EvictRequest, o []EvictResult) error { return s.EvictBatchInto(r, o, 1) },
					reqs, 1)
				if n != 0 {
					t.Fatalf("row admit+evict cycle allocates %.1f/op, want 0", n)
				}
			})
		}
	}
}
