package brick

import (
	"fmt"

	"repro/internal/topo"
)

// CarveAt re-allocates a segment at an exact offset — the teardown
// rollback primitive. When a batched eviction aborts mid-batch, every
// segment already released must come back at the address the surviving
// TGL windows still translate to, so first-fit Carve cannot be used:
// another request's gap churn may have moved the first fit. The region
// [offset, offset+size) must lie entirely inside one free gap.
func (m *Memory) CarveAt(offset, size Bytes, owner string) (*Segment, error) {
	if size == 0 {
		return nil, fmt.Errorf("memory %v: zero-byte segment", m.ID)
	}
	if m.state == PowerOff {
		return nil, fmt.Errorf("memory %v: carve on powered-off brick", m.ID)
	}
	if offset+size > m.Capacity {
		return nil, fmt.Errorf("memory %v: carve at %v+%v exceeds %v capacity", m.ID, offset, size, m.Capacity)
	}
	// Locate the gap holding the requested region.
	insertAt := len(m.segments)
	prevEnd := Bytes(0)
	nextStart := m.Capacity
	for i, s := range m.segments {
		if s.Offset > offset {
			insertAt = i
			nextStart = s.Offset
			break
		}
		prevEnd = s.Offset + s.Size
	}
	if offset < prevEnd || offset+size > nextStart {
		return nil, fmt.Errorf("memory %v: carve at %v+%v overlaps live segments (free gap is [%v, %v))", m.ID, offset, size, prevEnd, nextStart)
	}
	seg := m.newSegment(offset, size, owner)
	m.segments = append(m.segments, nil)
	copy(m.segments[insertAt+1:], m.segments[insertAt:])
	m.segments[insertAt] = seg
	// One gap [prevEnd, nextStart) splits into the remainders on either
	// side of the restored segment.
	m.removeGap(nextStart - prevEnd)
	m.addGap(offset - prevEnd)
	m.addGap(nextStart - (offset + size))
	m.used += size
	m.state = PowerActive
	return seg, nil
}

// Reacquire allocates one specific port — the teardown rollback
// counterpart of Acquire, which always hands out the lowest-numbered
// free port. A rolled-back eviction must restore the exact port a
// circuit was using, since the fabric cross-connect named it.
func (ps *PortSet) Reacquire(p topo.PortID) error {
	if p.Brick != ps.brick {
		return fmt.Errorf("brick %v: reacquire of foreign port %v", ps.brick, p)
	}
	if p.Port < 0 || p.Port >= len(ps.inUse) {
		return fmt.Errorf("brick %v: port index %d out of range", ps.brick, p.Port)
	}
	if ps.inUse[p.Port] {
		return fmt.Errorf("brick %v: reacquire of held port %d", ps.brick, p.Port)
	}
	if ps.quarantined[p.Port] {
		return fmt.Errorf("brick %v: port %d is quarantined; unquarantine after repair", ps.brick, p.Port)
	}
	ps.inUse[p.Port] = true
	ps.free--
	return nil
}
