package optical

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

// testPodFabric builds n rack fabrics of 8 attached ports each under a
// small pod switch.
func testPodFabric(t *testing.T, n, uplinks int) *PodFabric {
	t.Helper()
	prof := PodProfile{
		Switch: SwitchConfig{
			Ports:           64,
			InsertionLossDB: 1.5,
			PortPowerW:      0.1,
			ReconfigTime:    50 * sim.Millisecond,
		},
		UplinksPerRack:       uplinks,
		ExtraHops:            2,
		InterRackFiberMeters: 40,
	}
	fabrics := make([]*Fabric, n)
	for i := range fabrics {
		sw, err := NewSwitch(SwitchConfig{Ports: 16, InsertionLossDB: 1, PortPowerW: 0.1, ReconfigTime: 25 * sim.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		fabrics[i] = NewFabric(sw)
		for p := 0; p < 8; p++ {
			if err := fabrics[i].AttachPort(topo.PortID{Brick: topo.BrickID{Tray: 0, Slot: p / 4}, Port: p % 4}); err != nil {
				t.Fatal(err)
			}
		}
	}
	pf, err := NewPodFabric(prof, fabrics)
	if err != nil {
		t.Fatal(err)
	}
	return pf
}

func TestPodFabricCrossCircuit(t *testing.T) {
	pf := testPodFabric(t, 2, 4)
	a := topo.PortID{Brick: topo.BrickID{Tray: 0, Slot: 0}, Port: 0}
	b := topo.PortID{Brick: topo.BrickID{Tray: 0, Slot: 0}, Port: 1}
	c, reconfig, err := pf.ConnectCross(0, a, 1, b)
	if err != nil {
		t.Fatal(err)
	}
	if reconfig != 50*sim.Millisecond {
		t.Fatalf("reconfig = %v, want the pod switch's 50ms", reconfig)
	}
	// 1 hop per rack fabric + 2 extra, 5 m per rack + 40 m inter-rack.
	if c.Hops != 1+2+1 {
		t.Fatalf("hops = %d, want 4", c.Hops)
	}
	if c.FiberMeters != 5+40+5 {
		t.Fatalf("fiber = %v m, want 50", c.FiberMeters)
	}
	if pf.CrossCircuits() != 1 || pf.FreeUplinks(0) != 3 || pf.FreeUplinks(1) != 3 {
		t.Fatalf("bookkeeping: cross=%d uplinks=(%d,%d)", pf.CrossCircuits(), pf.FreeUplinks(0), pf.FreeUplinks(1))
	}

	// The busy brick ports refuse further circuits on either tier.
	if _, _, err := pf.Rack(0).Connect(a, topo.PortID{Brick: topo.BrickID{Tray: 0, Slot: 0}, Port: 2}); err == nil {
		t.Fatal("rack fabric connected through a port busy with a cross-rack circuit")
	}
	if _, _, err := pf.ConnectCross(0, a, 1, topo.PortID{Brick: topo.BrickID{Tray: 0, Slot: 0}, Port: 2}); err == nil {
		t.Fatal("second cross circuit through a busy port accepted")
	}
	// Rack-local teardown must not be able to reach the cross circuit.
	if _, err := pf.Rack(0).Disconnect(c); err == nil {
		t.Fatal("rack fabric tore down a cross-rack circuit")
	}

	if _, err := pf.DisconnectCross(c); err != nil {
		t.Fatal(err)
	}
	if pf.CrossCircuits() != 0 || pf.FreeUplinks(0) != 4 || pf.FreeUplinks(1) != 4 {
		t.Fatal("teardown did not restore uplinks")
	}
	// The ports are free again for intra-rack use.
	if _, _, err := pf.Rack(0).Connect(a, topo.PortID{Brick: topo.BrickID{Tray: 0, Slot: 0}, Port: 2}); err != nil {
		t.Fatal(err)
	}
}

func TestPodFabricUplinkExhaustion(t *testing.T) {
	pf := testPodFabric(t, 2, 1)
	a0 := topo.PortID{Brick: topo.BrickID{Tray: 0, Slot: 0}, Port: 0}
	b0 := topo.PortID{Brick: topo.BrickID{Tray: 0, Slot: 0}, Port: 0}
	if _, _, err := pf.ConnectCross(0, a0, 1, b0); err != nil {
		t.Fatal(err)
	}
	a1 := topo.PortID{Brick: topo.BrickID{Tray: 0, Slot: 0}, Port: 1}
	b1 := topo.PortID{Brick: topo.BrickID{Tray: 0, Slot: 0}, Port: 1}
	if _, _, err := pf.ConnectCross(0, a1, 1, b1); err == nil {
		t.Fatal("cross circuit provisioned with no free uplinks")
	}
}

func TestPodFabricValidation(t *testing.T) {
	fabrics := []*Fabric{}
	if _, err := NewPodFabric(DefaultPodProfile, fabrics); err == nil {
		t.Fatal("empty pod accepted")
	}
	sw, _ := NewSwitch(Polatis48)
	one := []*Fabric{NewFabric(sw)}
	bad := DefaultPodProfile
	bad.UplinksPerRack = 0
	if _, err := NewPodFabric(bad, one); err == nil {
		t.Fatal("zero uplinks accepted")
	}
	bad = DefaultPodProfile
	bad.Switch.Ports = 4
	many := make([]*Fabric, 5)
	for i := range many {
		s, _ := NewSwitch(Polatis48)
		many[i] = NewFabric(s)
	}
	if _, err := NewPodFabric(bad, many); err == nil {
		t.Fatal("uplink budget beyond pod switch accepted")
	}
}

func TestPodFabricSameRackRefused(t *testing.T) {
	pf := testPodFabric(t, 2, 2)
	a := topo.PortID{Brick: topo.BrickID{Tray: 0, Slot: 0}, Port: 0}
	b := topo.PortID{Brick: topo.BrickID{Tray: 0, Slot: 0}, Port: 1}
	if _, _, err := pf.ConnectCross(0, a, 0, b); err == nil {
		t.Fatal("same-rack cross circuit accepted")
	}
}

// TestLiveCircuitsCountsRackLocalOnly: a rack fabric's LiveCircuits
// counts its own circuits only; the ends of cross-rack circuits it
// carries count once each, in the pod's CrossCircuits.
func TestLiveCircuitsCountsRackLocalOnly(t *testing.T) {
	pf := testPodFabric(t, 2, 4)
	port := func(slot, p int) topo.PortID { return topo.PortID{Brick: topo.BrickID{Tray: 0, Slot: slot}, Port: p} }
	local, _, err := pf.Rack(0).Connect(port(0, 0), port(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	var cross []*Circuit
	for p := 1; p <= 2; p++ {
		c, _, err := pf.ConnectCross(0, port(0, p), 1, port(0, p))
		if err != nil {
			t.Fatal(err)
		}
		cross = append(cross, c)
	}
	if got := pf.Rack(0).LiveCircuits(); got != 1 {
		t.Fatalf("rack 0 LiveCircuits = %d with one local circuit and two cross-rack ends, want 1", got)
	}
	if got := pf.Rack(1).LiveCircuits(); got != 0 {
		t.Fatalf("rack 1 LiveCircuits = %d with only cross-rack ends, want 0", got)
	}
	if got := pf.CrossCircuits(); got != 2 {
		t.Fatalf("CrossCircuits = %d, want 2", got)
	}
	for _, c := range cross {
		if _, err := pf.DisconnectCross(c); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := pf.Rack(0).Disconnect(local); err != nil {
		t.Fatal(err)
	}
	if a, b := pf.Rack(0).LiveCircuits(), pf.Rack(1).LiveCircuits(); a != 0 || b != 0 {
		t.Fatalf("LiveCircuits after teardown = (%d, %d), want (0, 0)", a, b)
	}
}
