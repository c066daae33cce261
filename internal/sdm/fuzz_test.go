package sdm

import (
	"fmt"
	"testing"

	"repro/internal/brick"
	"repro/internal/sim"
	"repro/internal/topo"
)

// The fuzz alphabet: each op is one byte, op%6, followed by its
// argument bytes.
const (
	fuzzReserve  = iota // vcpus byte
	fuzzRelease         // vm byte
	fuzzAttach          // vm byte, size byte
	fuzzDetach          // vm byte
	fuzzPowerOff        // —
	fuzzPowerOn         // —
	fuzzOps
)

// fuzzVM is one VM on both rows: its compute reservation and its
// attachments, newest last.
type fuzzVM struct {
	owner            string
	vcpus            int
	cpuIdx, cpuLin   topo.RowBrickID
	attsIdx, attsLin []*Attachment
}

// FuzzRowMatchesLinear generalizes TestRowSpillOrderingMatchesLinearReference:
// the first byte picks a policy and whether the packet fallback is on,
// the rest is an op schedule — reserve, release, attach, detach,
// PowerOffIdle, PowerOnAll — run on a small indexed row and on its
// ScanLinear twin. Every placement, every error (nil or not) and the
// power census must match, and the indexed row's invariants — its
// placement indexes at every tier among them — must hold after every
// op.
func FuzzRowMatchesLinear(f *testing.F) {
	f.Add(referenceSchedule(PolicyPowerAware))
	f.Add(referenceSchedule(PolicySpread))
	f.Add([]byte{3, 0, 1, 0, 2, 0, 7, 2, 0, 7, 2, 0, 7, 3, 0, 4, 5, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfgIdx := DefaultConfig
		cfgIdx.Policy = Policy(int(data[0]) % 3)
		cfgIdx.PacketFallback = data[0]&4 != 0
		cfgLin := cfgIdx
		cfgLin.Scan = ScanLinear
		idx := buildRowSchedUplinks(t, 3, 2, 4*brick.GiB, 2, cfgIdx)
		lin := buildRowSchedUplinks(t, 3, 2, 4*brick.GiB, 2, cfgLin)

		var vms []*fuzzVM
		arg := func(i *int) int {
			if *i >= len(data) {
				return 0
			}
			*i++
			return int(data[*i-1])
		}
		vm := func(i *int) *fuzzVM {
			if len(vms) == 0 {
				return nil
			}
			return vms[arg(i)%len(vms)]
		}
		agree := func(step int, what string, errI, errL error) bool {
			t.Helper()
			if (errI == nil) != (errL == nil) {
				t.Fatalf("step %d: %s diverges: indexed %v, linear %v", step, what, errI, errL)
			}
			return errI == nil
		}
		for i, step := 1, 0; i < len(data) && step < 256; step++ {
			switch op := arg(&i) % fuzzOps; op {
			case fuzzReserve:
				v := &fuzzVM{owner: fmt.Sprintf("vm%03d", step), vcpus: 1 + arg(&i)%3}
				var errI, errL error
				v.cpuIdx, _, errI = idx.ReserveCompute(v.owner, v.vcpus, 0)
				v.cpuLin, _, errL = lin.ReserveCompute(v.owner, v.vcpus, 0)
				if !agree(step, "reserve", errI, errL) {
					continue
				}
				if v.cpuIdx != v.cpuLin {
					t.Fatalf("step %d: compute pick %v vs %v", step, v.cpuIdx, v.cpuLin)
				}
				vms = append(vms, v)
			case fuzzRelease:
				v := vm(&i)
				if v == nil {
					continue
				}
				for len(v.attsIdx) > 0 && detachNewest(t, step, idx, lin, v) {
				}
				if len(v.attsIdx) > 0 {
					// Another VM's packet riders hold a host circuit.
					continue
				}
				errI := idx.ReleaseCompute(v.cpuIdx, v.vcpus, 0)
				errL := lin.ReleaseCompute(v.cpuLin, v.vcpus, 0)
				agree(step, "release", errI, errL)
				for k, w := range vms {
					if w == v {
						vms = append(vms[:k], vms[k+1:]...)
						break
					}
				}
			case fuzzAttach:
				v := vm(&i)
				size := brick.Bytes(1+arg(&i)%4) * brick.GiB / 2
				if v == nil {
					continue
				}
				attI, _, errI := idx.AttachRemoteMemory(v.owner, v.cpuIdx, size)
				attL, _, errL := lin.AttachRemoteMemory(v.owner, v.cpuLin, size)
				if !agree(step, "attach", errI, errL) {
					continue
				}
				if attI.CPUPod != attL.CPUPod || attI.MemPod != attL.MemPod ||
					attI.CPURack != attL.CPURack || attI.MemRack != attL.MemRack ||
					attI.Segment.Brick != attL.Segment.Brick || attI.Segment.Offset != attL.Segment.Offset ||
					attI.Mode != attL.Mode {
					t.Fatalf("step %d (size %v): attach diverges:\nindexed: %+v\nlinear:  %+v", step, size, attI, attL)
				}
				v.attsIdx = append(v.attsIdx, attI)
				v.attsLin = append(v.attsLin, attL)
			case fuzzDetach:
				if v := vm(&i); v != nil && len(v.attsIdx) > 0 {
					detachNewest(t, step, idx, lin, v)
				}
			case fuzzPowerOff:
				if a, b := idx.PowerOffIdle(), lin.PowerOffIdle(); a != b {
					t.Fatalf("step %d: PowerOffIdle stopped %d bricks indexed, %d linear", step, a, b)
				}
			case fuzzPowerOn:
				idx.PowerOnAll()
				lin.PowerOnAll()
			}
			for _, kind := range []topo.BrickKind{topo.KindCompute, topo.KindMemory} {
				if a, b := idx.Census(kind), lin.Census(kind); a != b {
					t.Fatalf("step %d: %v census %+v indexed, %+v linear", step, kind, a, b)
				}
			}
			if err := idx.CheckInvariants(); err != nil {
				t.Fatalf("step %d: indexed row: %v", step, err)
			}
		}
		if a, b := rowFingerprint(t, idx, true), rowFingerprint(t, lin, true); a != b {
			t.Fatalf("final state diverges:\nindexed:\n%s\nlinear:\n%s", a, b)
		}
	})
}

// detachNewest detaches a VM's newest attachment on both rows and
// reports whether it went. Both must refuse alike: a circuit that other
// VMs' packet riders still ride stays.
func detachNewest(t *testing.T, step int, idx, lin *RowScheduler, v *fuzzVM) bool {
	t.Helper()
	n := len(v.attsIdx) - 1
	_, errI := idx.DetachRemoteMemory(v.attsIdx[n])
	_, errL := lin.DetachRemoteMemory(v.attsLin[n])
	if (errI == nil) != (errL == nil) {
		t.Fatalf("step %d: detach diverges: indexed %v, linear %v", step, errI, errL)
	}
	if errI != nil {
		return false
	}
	v.attsIdx, v.attsLin = v.attsIdx[:n], v.attsLin[:n]
	return true
}

// referenceSchedule encodes the randomized trace of
// TestRowSpillOrderingMatchesLinearReference — its seed, its op mix and
// its sizes — in the fuzz alphabet, as a seed input.
func referenceSchedule(policy Policy) []byte {
	rng := sim.NewRand(42)
	out := []byte{byte(policy)}
	vms := 0
	for step := 0; step < 200; step++ {
		switch op := rng.Intn(10); {
		case op < 3:
			out = append(out, fuzzReserve, 0)
			vms++
		case op < 8:
			if vms == 0 {
				continue
			}
			vm := rng.Intn(vms)
			out = append(out, fuzzAttach, byte(vm), byte(rng.Intn(3)))
		default:
			if vms == 0 {
				continue
			}
			out = append(out, fuzzDetach, byte(rng.Intn(vms)))
		}
	}
	return out
}
