package main

import (
	"fmt"
	"hash/fnv"
	"slices"
	"time"

	"repro/internal/brick"
	"repro/internal/core"
	"repro/internal/hypervisor"
)

// pristine is the free capacity of a freshly built row: every rack's
// free cores and every memory brick's free bytes, in visiting order.
type pristine struct {
	cores []int
	mem   []brick.Bytes
}

func snapshot(row *core.Row) pristine {
	var p pristine
	for i := 0; i < row.Pods(); i++ {
		pod := row.Scheduler().Pod(i)
		for r := 0; r < pod.Racks(); r++ {
			p.cores = append(p.cores, pod.Rack(r).FreeCores())
		}
	}
	forEachMemory(row, func(m *brick.Memory) { p.mem = append(p.mem, m.Free()) })
	return p
}

// circuits counts the row's live circuits: the rack fabrics' own, the
// pod fabrics' cross-rack ones and the row fabric's cross-pod ones.
func circuits(row *core.Row) (live, crossRack, crossPod int) {
	fab := row.Fabric()
	crossPod = fab.CrossCircuits()
	for p := 0; p < fab.Pods(); p++ {
		pf := fab.Pod(p)
		crossRack += pf.CrossCircuits()
		for r := 0; r < pf.Racks(); r++ {
			live += pf.Rack(r).LiveCircuits()
		}
	}
	return live, crossRack, crossPod
}

// checkInvariants cross-checks every pod's derived state. The row must
// hold no cross-pod attachment (see drain).
func checkInvariants(row *core.Row) error {
	for i := 0; i < row.Pods(); i++ {
		if err := row.Scheduler().Pod(i).CheckInvariants(); err != nil {
			return fmt.Errorf("pod %d invariants: %w", i, err)
		}
	}
	return nil
}

// digest hashes where every live VM sits — pod, rack, CPU brick and
// each bound attachment's tiers, memory brick, offset, mode and size —
// plus the outcome of every timed call and the summed virtual delay.
// The traced replay must reproduce the untraced run's digest exactly.
func digest(row *core.Row, f facade, vms []vm, calls []call, simDelay time.Duration) (uint64, error) {
	h := fnv.New64a()
	put := func(vs ...int64) {
		var b [8]byte
		for _, v := range vs {
			for i := range b {
				b[i] = byte(v >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	for _, v := range vms {
		id := v.name
		pod, rack, ok := f.vmLoc(id)
		if !ok {
			return 0, fmt.Errorf("digest: live VM %q has no location", id)
		}
		scale, _ := row.ScaleController(pod, rack)
		host, ok := scale.VMHost(hypervisor.VMID(id))
		if !ok {
			return 0, fmt.Errorf("digest: live VM %q unknown to its rack", id)
		}
		h.Write([]byte(id))
		put(int64(pod), int64(rack), int64(host.Tray), int64(host.Slot))
		for _, a := range scale.BoundAttachments(hypervisor.VMID(id)) {
			put(int64(a.CPUPod), int64(a.MemPod), int64(a.CPURack), int64(a.MemRack), int64(a.Mode),
				int64(a.Segment.Brick.Tray), int64(a.Segment.Brick.Slot), int64(a.Segment.Offset), int64(a.Size()))
		}
	}
	for _, c := range calls {
		ok := int64(0)
		if c.ok {
			ok = 1
		}
		put(int64(c.kind), ok, int64(c.vms))
	}
	put(int64(simDelay))
	return h.Sum64(), nil
}

// drain tears the row down through the facade and checks it is back
// to pristine: no live circuit at any tier, and every rack's free
// cores and every memory brick's free bytes as built. Scale-ups go
// first, in passes until none is left, because a circuit carrying
// another VM's packet-mode riders cannot be released before them. The
// pod invariants are checked next, with every VM still booted: not
// earlier, because PodScheduler.CheckInvariants does not know the row
// tier's cross-pod attachments and reports each one as a violation.
// Then every VM is destroyed.
func (e *env) drain() error {
	c := e.c
	for progress := true; progress && len(c.bound) > 0; {
		progress = false
		for _, i := range slices.Clone(c.bound) {
			for c.vms[i].bound >= 0 && c.scaleDown(int(i)) == nil {
				progress = true
			}
		}
	}
	if len(c.bound) > 0 {
		return fmt.Errorf("drain: %d VMs hold scale-ups no teardown order releases", len(c.bound))
	}
	if err := checkInvariants(e.row); err != nil {
		return err
	}
	ids := make([]string, 0, len(c.vms))
	for _, v := range c.vms {
		ids = append(ids, v.name)
	}
	for lo := 0; lo < len(ids); lo += c.w.burst {
		if _, err := e.f.destroy(ids[lo:min(lo+c.w.burst, len(ids))]); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
	}
	c.vms = c.vms[:0]
	row := e.row
	if live, crossRack, crossPod := circuits(row); live+crossRack+crossPod != 0 {
		return fmt.Errorf("drain: %d rack, %d cross-rack and %d cross-pod circuits still live", live, crossRack, crossPod)
	}
	got := snapshot(row)
	for i := range e.want.cores {
		if got.cores[i] != e.want.cores[i] {
			return fmt.Errorf("drain: rack %d has %d free cores, built with %d", i, got.cores[i], e.want.cores[i])
		}
	}
	for i := range e.want.mem {
		if got.mem[i] != e.want.mem[i] {
			return fmt.Errorf("drain: memory brick %d has %v free, built with %v", i, got.mem[i], e.want.mem[i])
		}
	}
	return nil
}
