// Package brick models the three dReDBox building blocks as schedulable,
// powerable resource units: dCOMPUBRICKs (cores + local memory + TGL
// uplinks), dMEMBRICKs (pooled DDR/HMC capacity behind glue logic) and
// dACCELBRICKs (reconfigurable accelerator slots).
//
// Bricks are individually powered — the TCO study (paper §VI) rests on the
// ability to power off any brick that carries no allocation, so each brick
// tracks a power state and exposes an IsIdle predicate the orchestrator
// uses for power-off sweeps.
package brick

import (
	"fmt"

	"repro/internal/topo"
)

// Bytes is a memory quantity in bytes.
type Bytes uint64

// Memory size units.
const (
	KiB Bytes = 1 << 10
	MiB Bytes = 1 << 20
	GiB Bytes = 1 << 30
	TiB Bytes = 1 << 40
)

func (b Bytes) String() string {
	switch {
	case b >= TiB && b%GiB == 0:
		return fmt.Sprintf("%dGiB", b/GiB)
	case b >= GiB:
		return fmt.Sprintf("%.1fGiB", float64(b)/float64(GiB))
	case b >= MiB:
		return fmt.Sprintf("%.1fMiB", float64(b)/float64(MiB))
	default:
		return fmt.Sprintf("%dB", uint64(b))
	}
}

// PowerState is the coarse power state of an individually powered unit.
type PowerState int

const (
	// PowerOff means the brick is powered down entirely.
	PowerOff PowerState = iota
	// PowerIdle means the brick is powered but carries no allocation.
	PowerIdle
	// PowerActive means the brick carries at least one allocation.
	PowerActive
)

func (s PowerState) String() string {
	switch s {
	case PowerOff:
		return "off"
	case PowerIdle:
		return "idle"
	case PowerActive:
		return "active"
	default:
		return fmt.Sprintf("PowerState(%d)", int(s))
	}
}

// PowerProfile gives the electrical draw of a unit in each power state,
// in watts. Representative values for the Zynq Ultrascale+ modules are
// set in DefaultProfiles.
type PowerProfile struct {
	OffW    float64
	IdleW   float64
	ActiveW float64
}

// Draw returns the wattage for state s.
func (p PowerProfile) Draw(s PowerState) float64 {
	switch s {
	case PowerIdle:
		return p.IdleW
	case PowerActive:
		return p.ActiveW
	default:
		return p.OffW
	}
}

// DefaultProfiles holds representative power profiles per brick kind.
// A dCOMPUBRICK is an MPSoC module (~20 W active); a dMEMBRICK is
// dominated by DRAM refresh and the FPGA glue (~15 W); a dACCELBRICK's
// fabric draw depends on the loaded bitstream (~25 W budget).
// A conventional 2-socket server, used by the TCO baseline, draws far
// more because CPU, memory and board cannot be powered independently.
var DefaultProfiles = map[topo.BrickKind]PowerProfile{
	topo.KindCompute: {OffW: 0.5, IdleW: 8, ActiveW: 20},
	topo.KindMemory:  {OffW: 0.5, IdleW: 6, ActiveW: 15},
	topo.KindAccel:   {OffW: 0.5, IdleW: 10, ActiveW: 25},
}

// ConventionalServerProfile models the coupled-resource baseline node
// (Fig. 11's "conventional datacenter" server).
var ConventionalServerProfile = PowerProfile{OffW: 5, IdleW: 120, ActiveW: 350}

// PortSet tracks allocation of a brick's high-speed transceiver ports.
// Each port maps to one MBO channel and therefore one circuit endpoint.
// Ports found faulty are quarantined: withdrawn from the pool until an
// operator repairs and unquarantines them.
type PortSet struct {
	brick       topo.BrickID
	inUse       []bool
	quarantined []bool
	free        int
}

// NewPortSet returns a set of n free ports for the given brick.
func NewPortSet(brick topo.BrickID, n int) *PortSet {
	return &PortSet{brick: brick, inUse: make([]bool, n), quarantined: make([]bool, n), free: n}
}

// Total returns the number of ports.
func (ps *PortSet) Total() int { return len(ps.inUse) }

// Free returns the number of unallocated ports.
func (ps *PortSet) Free() int { return ps.free }

// Acquire allocates the lowest-numbered free port.
func (ps *PortSet) Acquire() (topo.PortID, error) {
	for i, used := range ps.inUse {
		if !used {
			ps.inUse[i] = true
			ps.free--
			return topo.PortID{Brick: ps.brick, Port: i}, nil
		}
	}
	return topo.PortID{}, fmt.Errorf("brick %v: no free transceiver ports (total %d)", ps.brick, len(ps.inUse))
}

// Release frees a previously acquired port.
func (ps *PortSet) Release(p topo.PortID) error {
	if p.Brick != ps.brick {
		return fmt.Errorf("brick %v: release of foreign port %v", ps.brick, p)
	}
	if p.Port < 0 || p.Port >= len(ps.inUse) {
		return fmt.Errorf("brick %v: port index %d out of range", ps.brick, p.Port)
	}
	if !ps.inUse[p.Port] {
		return fmt.Errorf("brick %v: double release of port %d", ps.brick, p.Port)
	}
	if ps.quarantined[p.Port] {
		return fmt.Errorf("brick %v: port %d is quarantined; unquarantine after repair", ps.brick, p.Port)
	}
	ps.inUse[p.Port] = false
	ps.free++
	return nil
}

// InUse reports whether port index i is allocated.
func (ps *PortSet) InUse(i int) bool {
	return i >= 0 && i < len(ps.inUse) && ps.inUse[i]
}

// Quarantine withdraws a port the caller currently holds: the port stays
// marked in-use so it is never re-acquired, and it does not return to
// the free pool. The orchestrator calls this when the fabric reports the
// port's optical path faulty.
func (ps *PortSet) Quarantine(p topo.PortID) error {
	if p.Brick != ps.brick {
		return fmt.Errorf("brick %v: quarantine of foreign port %v", ps.brick, p)
	}
	if p.Port < 0 || p.Port >= len(ps.inUse) {
		return fmt.Errorf("brick %v: port index %d out of range", ps.brick, p.Port)
	}
	if !ps.inUse[p.Port] {
		return fmt.Errorf("brick %v: quarantine of unheld port %d", ps.brick, p.Port)
	}
	if ps.quarantined[p.Port] {
		return fmt.Errorf("brick %v: port %d already quarantined", ps.brick, p.Port)
	}
	ps.quarantined[p.Port] = true
	return nil
}

// Unquarantine returns a repaired port to the free pool.
func (ps *PortSet) Unquarantine(p topo.PortID) error {
	if p.Brick != ps.brick || p.Port < 0 || p.Port >= len(ps.inUse) {
		return fmt.Errorf("brick %v: invalid unquarantine of %v", ps.brick, p)
	}
	if !ps.quarantined[p.Port] {
		return fmt.Errorf("brick %v: port %d is not quarantined", ps.brick, p.Port)
	}
	ps.quarantined[p.Port] = false
	ps.inUse[p.Port] = false
	ps.free++
	return nil
}

// Quarantined returns the number of withdrawn ports.
func (ps *PortSet) Quarantined() int {
	n := 0
	for _, q := range ps.quarantined {
		if q {
			n++
		}
	}
	return n
}
