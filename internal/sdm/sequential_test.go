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

// seqTwin drives one pod or row through both admission paths under
// test: AdmitBatch, and the per-request ReserveCompute +
// AttachRemoteMemory it must reproduce.
type seqTwin struct {
	admitBatch func(reqs []AdmitRequest, workers int) ([]AdmitResult, error)
	reserve    func(vcpus int, local brick.Bytes) (topo.RowBrickID, sim.Duration, error)
	attach     func(owner string, cpu topo.RowBrickID, size brick.Bytes) (*Attachment, sim.Duration, error)
	detach     func(att *Attachment) error
	release    func(cpu topo.RowBrickID, vcpus int, local brick.Bytes) error
	// stats renders every tier's Stats(), top down.
	stats func() string
	check func() error
}

// seqRackSpec is the rack shape of the test: 4-core / 4-GiB compute
// bricks, and 32-GiB memory bricks with ports to spare, so no burst
// spills across a tier.
var seqRackSpec = BrickConfigs{
	Compute: brick.ComputeConfig{Cores: 4, LocalMemory: 4 * brick.GiB},
	Memory:  brick.MemoryConfig{Capacity: 32 * brick.GiB},
}

func seqFabrics(t *testing.T, racks int) *optical.PodFabric {
	t.Helper()
	fabrics := make([]*optical.Fabric, racks)
	for i := range fabrics {
		sw, err := optical.NewSwitch(optical.SwitchConfig{
			Ports: 512, InsertionLossDB: 1, PortPowerW: 0.1, ReconfigTime: 25 * sim.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		fabrics[i] = optical.NewFabric(sw)
	}
	pf, err := optical.NewPodFabric(optical.DefaultPodProfile, fabrics)
	if err != nil {
		t.Fatal(err)
	}
	return pf
}

func rackStats(b *strings.Builder, racks []*Controller) {
	for _, r := range racks {
		req, fail := r.Stats()
		fmt.Fprintf(b, " %d/%d", req, fail)
	}
}

// seqPod is a 16-rack pod of 16 compute and 2 memory bricks per rack.
func seqPod(t *testing.T, policy Policy) *seqTwin {
	pod, err := topo.BuildPod(16, topo.BuildSpec{Trays: 2, ComputePerTray: 8, MemoryPerTray: 1, PortsPerBrick: 16})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig
	cfg.Policy = policy
	s, err := NewPodScheduler(pod, seqFabrics(t, 16), seqRackSpec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	at := func(l topo.RowBrickID) topo.PodBrickID { return topo.PodBrickID{Rack: l.Rack, Brick: l.Brick} }
	return &seqTwin{
		admitBatch: s.AdmitBatch,
		reserve: func(vcpus int, local brick.Bytes) (topo.RowBrickID, sim.Duration, error) {
			id, lat, err := s.ReserveCompute("", vcpus, local)
			return topo.RowBrickID{Rack: id.Rack, Brick: id.Brick}, lat, err
		},
		attach: func(owner string, cpu topo.RowBrickID, size brick.Bytes) (*Attachment, sim.Duration, error) {
			return s.AttachRemoteMemory(owner, at(cpu), size)
		},
		detach: func(att *Attachment) error { _, err := s.DetachRemoteMemory(att); return err },
		release: func(cpu topo.RowBrickID, vcpus int, local brick.Bytes) error {
			return s.ReleaseCompute(at(cpu), vcpus, local)
		},
		stats: func() string {
			var b strings.Builder
			req, fail, spill := s.Stats()
			fmt.Fprintf(&b, "pod %d/%d/%d racks", req, fail, spill)
			rackStats(&b, s.racks)
			return b.String()
		},
		check: s.CheckInvariants,
	}
}

// buildSeqRow is a 4-pod x 8-rack row of 8 compute and 1 memory brick
// per rack.
func buildSeqRow(t *testing.T, policy Policy) *RowScheduler {
	row, err := topo.BuildRow(4, 8, topo.BuildSpec{Trays: 1, ComputePerTray: 8, MemoryPerTray: 1, PortsPerBrick: 16})
	if err != nil {
		t.Fatal(err)
	}
	pfs := make([]*optical.PodFabric, 4)
	for p := range pfs {
		pfs[p] = seqFabrics(t, 8)
	}
	rf, err := optical.NewRowFabric(optical.DefaultRowProfile, pfs)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig
	cfg.Policy = policy
	s, err := NewRowScheduler(row, rf, seqRackSpec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func seqRow(t *testing.T, policy Policy) *seqTwin {
	s := buildSeqRow(t, policy)
	return &seqTwin{
		admitBatch: s.AdmitBatch,
		reserve: func(vcpus int, local brick.Bytes) (topo.RowBrickID, sim.Duration, error) {
			return s.ReserveCompute("", vcpus, local)
		},
		attach:  s.AttachRemoteMemory,
		detach:  func(att *Attachment) error { _, err := s.DetachRemoteMemory(att); return err },
		release: s.ReleaseCompute,
		stats: func() string {
			var b strings.Builder
			req, fail, spill := s.Stats()
			fmt.Fprintf(&b, "row %d/%d/%d", req, fail, spill)
			for p, ps := range s.pods {
				req, fail, spill := ps.Stats()
				fmt.Fprintf(&b, "\npod %d %d/%d/%d racks", p, req, fail, spill)
				rackStats(&b, ps.racks)
			}
			return b.String()
		},
		check: s.CheckInvariants,
	}
}

// seqVM is one live VM as each twin placed it.
type seqVM struct {
	req AdmitRequest
	cpu [2]topo.RowBrickID
	att [2]*Attachment
}

// TestAdmitBatchMatchesSequential: a batch's compute placement is the
// placement of N sequential ReserveCompute calls in request order, at
// any batch size and worker count. Twin pods and rows are churned to
// about half their cores — random destroys fragment them — and every
// burst is admitted once through AdmitBatch and once per request.
// Compute placements, latencies, attachments and every tier's counters
// must match after each burst. Memory is ample: a batch runs its spills
// after every child-local attach, so a spill may take memory in another
// order than the sequential path, and the attachments and attach
// counters after it may differ.
func TestAdmitBatchMatchesSequential(t *testing.T) {
	tiers := []struct {
		name  string
		build func(*testing.T, Policy) *seqTwin
	}{{"pod", seqPod}, {"row", seqRow}}
	const cores = 256 * 4 // both shapes hold 256 compute bricks
	for _, tier := range tiers {
		for _, policy := range []Policy{PolicyPowerAware, PolicyFirstFit, PolicySpread} {
			for _, workers := range []int{1, 2} {
				for _, burst := range []int{8, 128} {
					name := fmt.Sprintf("%s/%v/workers=%d/burst=%d", tier.name, policy, workers, burst)
					t.Run(name, func(t *testing.T) {
						twins := [2]*seqTwin{tier.build(t, policy), tier.build(t, policy)}
						const bat, seq = 0, 1
						rng := sim.NewRand(uint64(7 + burst + workers))
						var live []seqVM
						used, next := 0, 0
						rounds := 64
						if burst > 8 {
							rounds = 10
						}
						for round := 0; round < rounds; round++ {
							for used+2*burst > cores/2 {
								k := rng.Intn(len(live))
								vm := live[k]
								for tw := range twins {
									if vm.att[tw] != nil {
										if err := twins[tw].detach(vm.att[tw]); err != nil {
											t.Fatal(err)
										}
									}
									if err := twins[tw].release(vm.cpu[tw], vm.req.VCPUs, vm.req.LocalMem); err != nil {
										t.Fatal(err)
									}
								}
								used -= vm.req.VCPUs
								live[k] = live[len(live)-1]
								live = live[:len(live)-1]
							}
							reqs := make([]AdmitRequest, burst)
							for i := range reqs {
								reqs[i] = AdmitRequest{
									Owner:    fmt.Sprintf("vm%d", next),
									VCPUs:    1 + rng.Intn(3),
									LocalMem: brick.Bytes(1+rng.Intn(3)) * brick.GiB,
									Remote:   brick.Bytes(rng.Intn(2)) * brick.GiB,
								}
								next++
							}
							out, err := twins[bat].admitBatch(reqs, workers)
							if err != nil {
								t.Fatalf("round %d: %v", round, err)
							}
							for i, req := range reqs {
								vm := seqVM{req: req}
								cpu, lat, err := twins[seq].reserve(req.VCPUs, req.LocalMem)
								if err != nil {
									t.Fatalf("round %d request %d: sequential reserve: %v", round, i, err)
								}
								if cpu != out[i].at() || lat != out[i].ComputeLat {
									t.Fatalf("round %d request %d: batch placed %v in %v, sequential %v in %v",
										round, i, out[i].at(), out[i].ComputeLat, cpu, lat)
								}
								vm.cpu = [2]topo.RowBrickID{cpu, cpu}
								if req.Remote > 0 {
									att, lat, err := twins[seq].attach(req.Owner, cpu, req.Remote)
									if err != nil {
										t.Fatalf("round %d request %d: sequential attach: %v", round, i, err)
									}
									vm.att = [2]*Attachment{out[i].Att, att}
									if att.cross != nil {
										t.Fatalf("round %d request %d: the shape must not spill", round, i)
									}
									a, b := flattenAtt(out[i].Att), flattenAtt(att)
									if a != b || out[i].Att.CPUPod != att.CPUPod || out[i].Att.MemPod != att.MemPod || out[i].AttachLat != lat {
										t.Fatalf("round %d request %d: batch attached %+v in %v, sequential %+v in %v",
											round, i, a, out[i].AttachLat, b, lat)
									}
								}
								used += req.VCPUs
								live = append(live, vm)
							}
							if a, b := twins[bat].stats(), twins[seq].stats(); a != b {
								t.Fatalf("round %d: counters diverge:\nbatch:      %s\nsequential: %s", round, a, b)
							}
							for tw, name := range []string{"batch", "sequential"} {
								if err := twins[tw].check(); err != nil {
									t.Fatalf("round %d: %s twin: %v", round, name, err)
								}
							}
						}
					})
				}
			}
		}
	}
}
