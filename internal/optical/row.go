package optical

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/topo"
)

// RowProfile parameterizes the inter-pod optical tier: a row-level
// circuit switch whose ports are trunked to the pods, with its own hop,
// fiber and reconfiguration profile. A cross-pod circuit traverses both
// rack switches plus the row switch and runs over row-length fiber, so
// it is deliberately more expensive than both an intra-rack and an
// intra-pod circuit — the quantity the row scheduler trades against
// pod-local capacity.
type RowProfile struct {
	// Switch is the row-level circuit switch module.
	Switch SwitchConfig
	// UplinksPerPod is the number of row-switch ports trunked to each
	// pod. One cross-pod circuit consumes one uplink on each end, so
	// this bounds a pod's concurrent cross-pod attachments. The matching
	// pod-switch trunk ports are modeled implicitly by this budget.
	UplinksPerPod int
	// ExtraHops is the additional switch-hop count a cross-pod circuit
	// pays on top of both endpoint racks' default hop counts (the row
	// switch traversal, plus any amplification stages).
	ExtraHops int
	// InterPodFiberMeters is the pod-to-row-switch-to-pod fiber run
	// added to both endpoints' intra-rack fiber.
	InterPodFiberMeters float64
}

// DefaultRowProfile is a 1024-port row switch — reconfiguring slower
// still at that radix — with 24 uplinks per pod and a 120 m inter-pod
// fiber run.
var DefaultRowProfile = RowProfile{
	Switch: SwitchConfig{
		Ports:           1024,
		InsertionLossDB: 2.0,
		PortPowerW:      0.100,
		ReconfigTime:    80 * sim.Millisecond,
	},
	UplinksPerPod:       24,
	ExtraHops:           3,
	InterPodFiberMeters: 120,
}

// Validate rejects unusable row profiles for the given pod count.
func (p RowProfile) Validate(pods int) error {
	if err := p.Switch.Validate(); err != nil {
		return err
	}
	if pods <= 0 {
		return fmt.Errorf("optical: row needs at least one pod, got %d", pods)
	}
	if p.UplinksPerPod <= 0 {
		return fmt.Errorf("optical: row needs at least one uplink per pod, got %d", p.UplinksPerPod)
	}
	if need := pods * p.UplinksPerPod; need > p.Switch.Ports {
		return fmt.Errorf("optical: %d pods x %d uplinks exceed the %d-port row switch",
			pods, p.UplinksPerPod, p.Switch.Ports)
	}
	if p.ExtraHops < 0 || p.InterPodFiberMeters < 0 {
		return fmt.Errorf("optical: negative hop or fiber profile in row config")
	}
	return nil
}

// RowFabric composes per-pod fabrics under one row-level circuit
// switch. Intra-pod circuits (rack-local or cross-rack) go through the
// pod's own PodFabric untouched; cross-pod circuits consume one row
// uplink per endpoint pod and a row-switch crossing, and carry the row
// profile's extra hops and fiber. All three tiers share the brick-port
// busy accounting, so a port can never carry circuits on two tiers at
// once.
type RowFabric struct {
	prof RowProfile
	pods []*PodFabric
	row  *Switch

	// uplinkBusy[p][j] marks row-switch port p*UplinksPerPod+j in use.
	uplinkBusy [][]bool
	// noUplink[i] is pod i's uplink-exhaustion error, built once so a
	// packet-mode spill that finds the uplinks full allocates nothing.
	noUplink []error
	// crossLive counts live cross-pod circuits. Each circuit carries its
	// own route state (endpoint pods, racks and uplinks), so teardown is
	// field reads instead of a pointer-keyed route map.
	crossLive int
}

// NewRowFabric wires the given pod fabrics (index order is the row's
// pod order) under a row switch built from the profile.
func NewRowFabric(prof RowProfile, pods []*PodFabric) (*RowFabric, error) {
	if err := prof.Validate(len(pods)); err != nil {
		return nil, err
	}
	row, err := NewSwitch(prof.Switch)
	if err != nil {
		return nil, err
	}
	busy := make([][]bool, len(pods))
	noUplink := make([]error, len(pods))
	for i := range busy {
		busy[i] = make([]bool, prof.UplinksPerPod)
		noUplink[i] = fmt.Errorf("optical: pod %d has no free row uplinks (%d total)", i, prof.UplinksPerPod)
	}
	return &RowFabric{
		prof:       prof,
		pods:       pods,
		row:        row,
		uplinkBusy: busy,
		noUplink:   noUplink,
	}, nil
}

// Pods returns the pod count.
func (rf *RowFabric) Pods() int { return len(rf.pods) }

// Pod returns the pod fabric at index i, or nil if out of range.
func (rf *RowFabric) Pod(i int) *PodFabric {
	if i < 0 || i >= len(rf.pods) {
		return nil
	}
	return rf.pods[i]
}

// RowSwitch returns the row-level switch.
func (rf *RowFabric) RowSwitch() *Switch { return rf.row }

// Profile returns the row profile.
func (rf *RowFabric) Profile() RowProfile { return rf.prof }

// FreeUplinks returns pod i's free row uplinks.
func (rf *RowFabric) FreeUplinks(i int) int {
	if i < 0 || i >= len(rf.pods) {
		return 0
	}
	n := 0
	for _, b := range rf.uplinkBusy[i] {
		if !b {
			n++
		}
	}
	return n
}

// CrossCircuits returns the number of live cross-pod circuits.
func (rf *RowFabric) CrossCircuits() int { return rf.crossLive }

// uplinkPort maps (pod, slot) onto the row switch's port space.
func (rf *RowFabric) uplinkPort(pod, slot int) int {
	return pod*rf.prof.UplinksPerPod + slot
}

// acquireUplink claims pod i's lowest free uplink slot.
func (rf *RowFabric) acquireUplink(i int) (int, error) {
	for j, busy := range rf.uplinkBusy[i] {
		if !busy {
			rf.uplinkBusy[i][j] = true
			return j, nil
		}
	}
	return 0, rf.noUplink[i]
}

// ConnectCross provisions a cross-pod circuit between brick port a on
// rack ra of pod pa and brick port b on rack rb of pod pb: one row
// uplink on each pod, one row-switch crossing between them. The
// circuit's hop count and fiber length stack both endpoint racks'
// intra-rack defaults on top of the row profile, and the returned
// reconfiguration time is the slowest stage — the rack switches and the
// row switch retune in parallel.
func (rf *RowFabric) ConnectCross(pa int, ra int, a topo.PortID, pb int, rb int, b topo.PortID) (*Circuit, sim.Duration, error) {
	if pa < 0 || pa >= len(rf.pods) || pb < 0 || pb >= len(rf.pods) {
		return nil, 0, fmt.Errorf("optical: pod index out of range (%d, %d)", pa, pb)
	}
	if pa == pb {
		return nil, 0, fmt.Errorf("optical: cross-pod circuit within pod %d; use the pod fabric", pa)
	}
	pfa, pfb := rf.pods[pa], rf.pods[pb]
	if ra < 0 || ra >= len(pfa.racks) || rb < 0 || rb >= len(pfb.racks) {
		return nil, 0, fmt.Errorf("optical: rack index out of range (%d, %d)", ra, rb)
	}
	fa, fb := pfa.racks[ra], pfb.racks[rb]
	swA := fa.swPort(a)
	if swA < 0 {
		return nil, 0, fmt.Errorf("optical: port %v not attached to pod %d rack %d's fabric", a, pa, ra)
	}
	swB := fb.swPort(b)
	if swB < 0 {
		return nil, 0, fmt.Errorf("optical: port %v not attached to pod %d rack %d's fabric", b, pb, rb)
	}
	if fa.circuits[swA] != nil {
		return nil, 0, fmt.Errorf("optical: port %v already carries a circuit", a)
	}
	if fb.circuits[swB] != nil {
		return nil, 0, fmt.Errorf("optical: port %v already carries a circuit", b)
	}
	upA, err := rf.acquireUplink(pa)
	if err != nil {
		return nil, 0, err
	}
	upB, err := rf.acquireUplink(pb)
	if err != nil {
		rf.uplinkBusy[pa][upA] = false
		return nil, 0, err
	}
	rpa, rpb := rf.uplinkPort(pa, upA), rf.uplinkPort(pb, upB)
	if err := rf.row.Connect(rpa, rpb); err != nil {
		rf.uplinkBusy[pa][upA] = false
		rf.uplinkBusy[pb][upB] = false
		return nil, 0, err
	}
	// The circuit comes from (and returns to) the A-endpoint rack's
	// arena, so cross-pod churn recycles objects like rack-local churn.
	c := fa.newCircuit()
	c.A, c.B, c.swA, c.swB = a, b, swA, swB
	c.Hops = fa.DefaultHops + rf.prof.ExtraHops + fb.DefaultHops
	c.FiberMeters = fa.DefaultFiberMeters + rf.prof.InterPodFiberMeters + fb.DefaultFiberMeters
	// Register at both endpoint rack fabrics so intra-rack Connect
	// refuses the busy ports; Fabric.Disconnect and DisconnectCross on
	// the pod fabrics reject the circuit (neither tier owns it), forcing
	// teardown through RowFabric.DisconnectCross.
	fa.circuits[swA] = c
	fb.circuits[swB] = c
	c.xTier = xTierRow
	c.xPodA, c.xPodB = int32(pa), int32(pb)
	c.xRackA, c.xRackB = int32(ra), int32(rb)
	c.xUpA, c.xUpB = int32(upA), int32(upB)
	rf.crossLive++
	reconfig := rf.prof.Switch.ReconfigTime
	if t := fa.sw.Config().ReconfigTime; t > reconfig {
		reconfig = t
	}
	if t := fb.sw.Config().ReconfigTime; t > reconfig {
		reconfig = t
	}
	return c, reconfig, nil
}

// DisconnectCross tears a cross-pod circuit down, releasing both row
// uplinks and the row-switch crossing.
func (rf *RowFabric) DisconnectCross(c *Circuit) (sim.Duration, error) {
	podA, podB := int(c.xPodA), int(c.xPodB)
	upA, upB := int(c.xUpA), int(c.xUpB)
	if c.xTier != xTierRow || podA < 0 || podA >= len(rf.pods) ||
		rf.pods[podA].racks[c.xRackA].circuits[c.swA] != c {
		return 0, fmt.Errorf("optical: circuit %v<->%v is not a live cross-pod circuit", c.A, c.B)
	}
	if err := rf.row.Disconnect(rf.uplinkPort(podA, upA)); err != nil {
		return 0, err
	}
	fa := rf.pods[podA].racks[c.xRackA]
	fb := rf.pods[podB].racks[c.xRackB]
	fa.circuits[c.swA] = nil
	fb.circuits[c.swB] = nil
	rf.uplinkBusy[podA][upA] = false
	rf.uplinkBusy[podB][upB] = false
	rf.crossLive--
	reconfig := rf.prof.Switch.ReconfigTime
	if t := fa.sw.Config().ReconfigTime; t > reconfig {
		reconfig = t
	}
	if t := fb.sw.Config().ReconfigTime; t > reconfig {
		reconfig = t
	}
	fa.recycle(c)
	return reconfig, nil
}

// PowerW returns the inter-pod tier's electrical draw (the row switch
// only; pod and rack switches account for themselves).
func (rf *RowFabric) PowerW() float64 { return rf.row.PowerW() }
