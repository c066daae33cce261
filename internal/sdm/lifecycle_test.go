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

func TestOpKindStrings(t *testing.T) {
	want := map[OpKind]string{
		OpAttach: "attach", OpDetach: "detach", OpRepoint: "re-point",
		OpRehome: "re-home", OpPromote: "promote", OpKind(99): "op",
	}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
}

// TestAttachRollsBackOnWindowFailure drives an attach plan into its
// last fallible step — the TGL window install — and checks the engine
// unwinds everything: ports, segment and circuit all return to the
// pre-op state, and the rack keeps working.
func TestAttachRollsBackOnWindowFailure(t *testing.T) {
	rack, err := topo.Build(topo.BuildSpec{
		Trays: 1, ComputePerTray: 1, MemoryPerTray: 1, AccelPerTray: 0, PortsPerBrick: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := optical.NewSwitch(optical.Polatis48)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig
	cfg.RMSTCapacity = 1 // one window per brick; the second attach fails late
	c, err := NewController(rack, optical.NewFabric(sw), BrickConfigs{
		Memory: brick.MemoryConfig{Capacity: 8 * brick.GiB},
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cpu, _, err := c.ReserveCompute("vm", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	att, _, err := c.AttachRemoteMemory("vm", cpu, brick.GiB)
	if err != nil {
		t.Fatal(err)
	}
	node, _ := c.Compute(cpu)
	mem, _ := c.Memory(att.Segment.Brick)
	cpuFree, memFree := node.Brick.Ports.Free(), mem.Ports.Free()
	gap, circuits := mem.LargestGap(), c.fabric.LiveCircuits()
	_, failsBefore := c.Stats()

	if _, _, err := c.AttachRemoteMemory("vm", cpu, brick.GiB); err == nil {
		t.Fatal("attach into a full RMST accepted")
	}
	if _, fails := c.Stats(); fails != failsBefore+1 {
		t.Fatalf("failures = %d, want %d", fails, failsBefore+1)
	}
	if got := node.Brick.Ports.Free(); got != cpuFree {
		t.Fatalf("CPU ports free = %d after rollback, want %d", got, cpuFree)
	}
	if got := mem.Ports.Free(); got != memFree {
		t.Fatalf("memory ports free = %d after rollback, want %d", got, memFree)
	}
	if got := mem.LargestGap(); got != gap {
		t.Fatalf("largest gap = %v after rollback, want %v", got, gap)
	}
	if got := c.fabric.LiveCircuits(); got != circuits {
		t.Fatalf("live circuits = %d after rollback, want %d", got, circuits)
	}
	if len(c.Attachments("vm")) != 1 {
		t.Fatal("phantom attachment registered")
	}
	// The surviving attachment still tears down cleanly.
	if _, err := c.DetachRemoteMemory(att); err != nil {
		t.Fatal(err)
	}

	// The same unwind at the pod and row tiers: the home brick's only
	// window holds the attach that filled its rack's (pod's) memory, so
	// the spill fails at its window push after its circuit came up.
	cfg.RMSTCapacity = 1
	t.Run("cross-rack", func(t *testing.T) {
		s := buildPodSched(t, 2, 4*brick.GiB, 2, cfg)
		cpu, _, err := s.ReserveCompute("vm", 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.AttachRemoteMemory("vm", cpu, 4*brick.GiB); err != nil {
			t.Fatal(err)
		}
		checkSpillRollback(t, s.racks, &s.crossTier, s.fabric.CrossCircuits, s.CheckInvariants,
			[]func() (uint64, uint64){tierStats(s.Stats), s.racks[0].Stats}, []func() (uint64, uint64){s.racks[1].Stats},
			func() error {
				_, _, err := s.AttachRemoteMemory("vm", cpu, brick.GiB)
				return err
			})
	})
	t.Run("cross-pod", func(t *testing.T) {
		s := buildRowSched(t, 2, 1, 4*brick.GiB, cfg)
		cpu, _, err := s.ReserveCompute("vm", 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.AttachRemoteMemory("vm", cpu, 4*brick.GiB); err != nil {
			t.Fatal(err)
		}
		racks := []*Controller{s.pods[0].racks[0], s.pods[1].racks[0]}
		checkSpillRollback(t, racks, &s.crossTier, s.fabric.CrossCircuits, s.CheckInvariants,
			[]func() (uint64, uint64){tierStats(s.Stats), tierStats(s.pods[0].Stats), racks[0].Stats},
			[]func() (uint64, uint64){tierStats(s.pods[1].Stats), racks[1].Stats},
			func() error {
				_, _, err := s.AttachRemoteMemory("vm", cpu, brick.GiB)
				return err
			})
	})
}

// tierStats is a pod's or row's request and failure counters.
func tierStats(stats func() (requests, failures, spills uint64)) func() (uint64, uint64) {
	return func() (uint64, uint64) {
		r, f, _ := stats()
		return r, f
	}
}

// checkSpillRollback runs a spill that fails at its window push and
// checks the unwind: every brick's ports and largest gap, every rack's
// live circuits and host tables, the tier's cross circuits and walk
// order are as before, the invariants hold, and the counters record
// exactly one refused request — at the tier and along the VM's home
// child (home), nowhere else (other).
func checkSpillRollback(t *testing.T, racks []*Controller, ct *crossTier, crossCircuits func() int,
	check func() error, home, other []func() (uint64, uint64), spill func() error) {
	t.Helper()
	state := func() string {
		var b strings.Builder
		for i, r := range racks {
			fmt.Fprintf(&b, "rack %d: circuits=%d", i, r.fabric.LiveCircuits())
			for ord, n := range r.computes {
				fmt.Fprintf(&b, " cpu%d ports=%d hosts=%d", ord, n.Brick.Ports.Free(), len(r.circuitHosts[ord]))
				for lvl, tab := range r.crossHosts {
					if tab != nil {
						fmt.Fprintf(&b, " cross%d=%d", lvl, len(tab[ord]))
					}
				}
			}
			for ord, m := range r.memories {
				fmt.Fprintf(&b, " mem%d ports=%d gap=%v", ord, m.Ports.Free(), m.LargestGap())
			}
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "cross circuits=%d walk=%d seq=%d spills=%d", crossCircuits(), ct.cross.n, ct.attachSeq, ct.spills)
		return b.String()
	}
	stats := func(fns []func() (uint64, uint64)) [][2]uint64 {
		out := make([][2]uint64, len(fns))
		for i, fn := range fns {
			out[i][0], out[i][1] = fn()
		}
		return out
	}
	before, homeBefore, otherBefore := state(), stats(home), stats(other)
	if err := spill(); err == nil {
		t.Fatal("spill into a full RMST accepted")
	}
	if after := state(); after != before {
		t.Fatalf("state after rollback:\n%s\nwant:\n%s", after, before)
	}
	if err := check(); err != nil {
		t.Fatal(err)
	}
	for i, got := range stats(home) {
		if want := [2]uint64{homeBefore[i][0] + 1, homeBefore[i][1] + 1}; got != want {
			t.Fatalf("home tier %d requests/failures = %v, want %v", i, got, want)
		}
	}
	for i, got := range stats(other) {
		if got != otherBefore[i] {
			t.Fatalf("other tier %d requests/failures = %v, want %v", i, got, otherBefore[i])
		}
	}
}

// attachPacket runs the rack-local packet fallback on its own, so tests
// can check its preconditions where a circuit attach would succeed.
func (c *Controller) attachPacket(owner string, cpu topo.BrickID, size brick.Bytes) (*Attachment, sim.Duration, error) {
	return c.rackSite().packet(owner, topo.RowBrickID{Brick: cpu}, size)
}
