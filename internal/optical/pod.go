package optical

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/topo"
)

// PodProfile parameterizes the inter-rack optical tier: a pod-level
// circuit switch whose ports are trunked to the racks, with its own
// hop, fiber and reconfiguration profile. Cross-rack circuits traverse
// both rack switches plus the pod switch and run over much longer
// fiber, so a cross-rack attachment is deliberately more expensive than
// an intra-rack one — the quantity the pod scheduler trades against
// rack-local capacity.
type PodProfile struct {
	// Switch is the pod-level circuit switch module.
	Switch SwitchConfig
	// UplinksPerRack is the number of pod-switch ports trunked to each
	// rack. One cross-rack circuit consumes one uplink on each end, so
	// this bounds a rack's concurrent cross-rack attachments. The
	// matching rack-switch trunk ports are modeled implicitly by this
	// budget.
	UplinksPerRack int
	// ExtraHops is the additional switch-hop count a cross-rack circuit
	// pays on top of both racks' default hop counts (the pod switch
	// traversal, plus any amplification stages).
	ExtraHops int
	// InterRackFiberMeters is the rack-to-pod-switch-to-rack fiber run
	// added to both endpoints' intra-rack fiber.
	InterRackFiberMeters float64
}

// DefaultPodProfile is a 384-port pod switch — beam-steering switches
// reconfigure slower at that radix — with 16 uplinks per rack and a
// 40 m inter-rack fiber run.
var DefaultPodProfile = PodProfile{
	Switch: SwitchConfig{
		Ports:           384,
		InsertionLossDB: 1.5,
		PortPowerW:      0.100,
		ReconfigTime:    50 * sim.Millisecond,
	},
	UplinksPerRack:       16,
	ExtraHops:            2,
	InterRackFiberMeters: 40,
}

// Validate rejects unusable pod profiles for the given rack count.
func (p PodProfile) Validate(racks int) error {
	if err := p.Switch.Validate(); err != nil {
		return err
	}
	if racks <= 0 {
		return fmt.Errorf("optical: pod needs at least one rack, got %d", racks)
	}
	if p.UplinksPerRack <= 0 {
		return fmt.Errorf("optical: pod needs at least one uplink per rack, got %d", p.UplinksPerRack)
	}
	if need := racks * p.UplinksPerRack; need > p.Switch.Ports {
		return fmt.Errorf("optical: %d racks x %d uplinks exceed the %d-port pod switch",
			racks, p.UplinksPerRack, p.Switch.Ports)
	}
	if p.ExtraHops < 0 || p.InterRackFiberMeters < 0 {
		return fmt.Errorf("optical: negative hop or fiber profile in pod config")
	}
	return nil
}

// PodFabric composes per-rack circuit fabrics under one pod-level
// circuit switch. Intra-rack circuits go through the rack's own Fabric
// untouched; cross-rack circuits consume one pod uplink per endpoint
// rack and a pod-switch crossing, and carry the pod profile's extra
// hops and fiber. Both tiers share the brick-port busy accounting, so a
// port can never carry an intra-rack and a cross-rack circuit at once.
type PodFabric struct {
	prof  PodProfile
	racks []*Fabric
	pod   *Switch

	// uplinkBusy[r][j] marks pod-switch port r*UplinksPerRack+j in use.
	uplinkBusy [][]bool
	// noUplink[i] is rack i's uplink-exhaustion error, built once so a
	// packet-mode spill that finds the uplinks full allocates nothing.
	noUplink []error
	// crossLive counts live cross-rack circuits. Each circuit carries its
	// own route state (endpoint racks and uplinks), so teardown is field
	// reads instead of a pointer-keyed route map.
	crossLive int
}

// NewPodFabric wires the given rack fabrics (index order is the pod's
// rack order) under a pod switch built from the profile.
func NewPodFabric(prof PodProfile, racks []*Fabric) (*PodFabric, error) {
	if err := prof.Validate(len(racks)); err != nil {
		return nil, err
	}
	pod, err := NewSwitch(prof.Switch)
	if err != nil {
		return nil, err
	}
	busy := make([][]bool, len(racks))
	noUplink := make([]error, len(racks))
	for i := range busy {
		busy[i] = make([]bool, prof.UplinksPerRack)
		noUplink[i] = fmt.Errorf("optical: rack %d has no free pod uplinks (%d total)", i, prof.UplinksPerRack)
	}
	return &PodFabric{
		prof:       prof,
		racks:      racks,
		pod:        pod,
		uplinkBusy: busy,
		noUplink:   noUplink,
	}, nil
}

// Racks returns the rack count.
func (pf *PodFabric) Racks() int { return len(pf.racks) }

// Rack returns the rack-local fabric at index i, or nil if out of range.
func (pf *PodFabric) Rack(i int) *Fabric {
	if i < 0 || i >= len(pf.racks) {
		return nil
	}
	return pf.racks[i]
}

// PodSwitch returns the pod-level switch.
func (pf *PodFabric) PodSwitch() *Switch { return pf.pod }

// Profile returns the pod profile.
func (pf *PodFabric) Profile() PodProfile { return pf.prof }

// FreeUplinks returns rack i's free pod uplinks.
func (pf *PodFabric) FreeUplinks(i int) int {
	if i < 0 || i >= len(pf.racks) {
		return 0
	}
	n := 0
	for _, b := range pf.uplinkBusy[i] {
		if !b {
			n++
		}
	}
	return n
}

// CrossCircuits returns the number of live cross-rack circuits.
func (pf *PodFabric) CrossCircuits() int { return pf.crossLive }

// uplinkPort maps (rack, slot) onto the pod switch's port space.
func (pf *PodFabric) uplinkPort(rack, slot int) int {
	return rack*pf.prof.UplinksPerRack + slot
}

// acquireUplink claims rack i's lowest free uplink slot.
func (pf *PodFabric) acquireUplink(i int) (int, error) {
	for j, busy := range pf.uplinkBusy[i] {
		if !busy {
			pf.uplinkBusy[i][j] = true
			return j, nil
		}
	}
	return 0, pf.noUplink[i]
}

// ConnectCross provisions a cross-rack circuit between brick port a on
// rack ra and brick port b on rack rb: one uplink on each rack, one
// pod-switch crossing between them. The circuit's hop count and fiber
// length stack both racks' intra-rack defaults on top of the pod
// profile, and the returned reconfiguration time is the pod switch's —
// the rack stages retune in parallel under it.
func (pf *PodFabric) ConnectCross(ra int, a topo.PortID, rb int, b topo.PortID) (*Circuit, sim.Duration, error) {
	if ra < 0 || ra >= len(pf.racks) || rb < 0 || rb >= len(pf.racks) {
		return nil, 0, fmt.Errorf("optical: rack index out of range (%d, %d)", ra, rb)
	}
	if ra == rb {
		return nil, 0, fmt.Errorf("optical: cross-rack circuit within rack %d; use the rack fabric", ra)
	}
	fa, fb := pf.racks[ra], pf.racks[rb]
	swA := fa.swPort(a)
	if swA < 0 {
		return nil, 0, fmt.Errorf("optical: port %v not attached to rack %d's fabric", a, ra)
	}
	swB := fb.swPort(b)
	if swB < 0 {
		return nil, 0, fmt.Errorf("optical: port %v not attached to rack %d's fabric", b, rb)
	}
	if fa.circuits[swA] != nil {
		return nil, 0, fmt.Errorf("optical: port %v already carries a circuit", a)
	}
	if fb.circuits[swB] != nil {
		return nil, 0, fmt.Errorf("optical: port %v already carries a circuit", b)
	}
	upA, err := pf.acquireUplink(ra)
	if err != nil {
		return nil, 0, err
	}
	upB, err := pf.acquireUplink(rb)
	if err != nil {
		pf.uplinkBusy[ra][upA] = false
		return nil, 0, err
	}
	pa, pb := pf.uplinkPort(ra, upA), pf.uplinkPort(rb, upB)
	if err := pf.pod.Connect(pa, pb); err != nil {
		pf.uplinkBusy[ra][upA] = false
		pf.uplinkBusy[rb][upB] = false
		return nil, 0, err
	}
	// The circuit comes from (and returns to) the A-endpoint rack's
	// arena, so cross-rack churn recycles objects like rack-local churn.
	c := fa.newCircuit()
	c.A, c.B, c.swA, c.swB = a, b, swA, swB
	c.Hops = fa.DefaultHops + pf.prof.ExtraHops + fb.DefaultHops
	c.FiberMeters = fa.DefaultFiberMeters + pf.prof.InterRackFiberMeters + fb.DefaultFiberMeters
	// Register at both rack endpoints so intra-rack Connect refuses the
	// busy ports; Fabric.Disconnect rejects the circuit (each rack holds
	// only one endpoint), forcing teardown through DisconnectCross.
	fa.circuits[swA] = c
	fb.circuits[swB] = c
	c.xTier = xTierPod
	c.xRackA, c.xRackB = int32(ra), int32(rb)
	c.xUpA, c.xUpB = int32(upA), int32(upB)
	pf.crossLive++
	reconfig := pf.prof.Switch.ReconfigTime
	if t := fa.sw.Config().ReconfigTime; t > reconfig {
		reconfig = t
	}
	if t := fb.sw.Config().ReconfigTime; t > reconfig {
		reconfig = t
	}
	return c, reconfig, nil
}

// DisconnectCross tears a cross-rack circuit down, releasing both
// uplinks and the pod-switch crossing.
func (pf *PodFabric) DisconnectCross(c *Circuit) (sim.Duration, error) {
	rackA, rackB := int(c.xRackA), int(c.xRackB)
	upA, upB := int(c.xUpA), int(c.xUpB)
	if c.xTier != xTierPod || rackA < 0 || rackA >= len(pf.racks) ||
		pf.racks[rackA].circuits[c.swA] != c {
		return 0, fmt.Errorf("optical: circuit %v<->%v is not a live cross-rack circuit", c.A, c.B)
	}
	if err := pf.pod.Disconnect(pf.uplinkPort(rackA, upA)); err != nil {
		return 0, err
	}
	fa, fb := pf.racks[rackA], pf.racks[rackB]
	fa.circuits[c.swA] = nil
	fb.circuits[c.swB] = nil
	pf.uplinkBusy[rackA][upA] = false
	pf.uplinkBusy[rackB][upB] = false
	pf.crossLive--
	reconfig := pf.prof.Switch.ReconfigTime
	if t := fa.sw.Config().ReconfigTime; t > reconfig {
		reconfig = t
	}
	if t := fb.sw.Config().ReconfigTime; t > reconfig {
		reconfig = t
	}
	fa.recycle(c)
	return reconfig, nil
}

// PowerW returns the inter-rack tier's electrical draw (the pod switch
// only; rack switches account for themselves).
func (pf *PodFabric) PowerW() float64 { return pf.pod.PowerW() }
