package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/brick"
	"repro/internal/sdm"
	"repro/internal/sim"
)

// pipelinePodConfig sizes a pod for pipeline tests under a policy.
func pipelinePodConfig(racks int, policy sdm.Policy) PodConfig {
	cfg := batchPodConfig(racks)
	cfg.Rack.SDM.Policy = policy
	return cfg
}

// podFingerprint summarizes a pod's placement-visible state: per-rack
// resource aggregates plus the live pod-tier circuit count. Two pods
// with equal fingerprints (and equal per-VM racks, checked separately)
// made the same placement decisions.
func podFingerprint(p *Pod) string {
	var b strings.Builder
	for i := 0; i < p.Racks(); i++ {
		r := p.Scheduler().Rack(i)
		fmt.Fprintf(&b, "rack%d cores=%d mem=%d\n", i, r.FreeCores(), r.FreeMemory())
	}
	fmt.Fprintf(&b, "cross=%d draw=%.3f\n", p.Fabric().CrossCircuits(), p.DrawW())
	return b.String()
}

// TestPipelineDepthOneMatchesFacade: a depth-1 pipeline is the facade —
// results, placements and both clocks, bit for bit.
func TestPipelineDepthOneMatchesFacade(t *testing.T) {
	seqPod, err := NewPod(batchPodConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	pipPod, err := NewPod(batchPodConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	bp, err := NewBatchPipeline(pipPod, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		reqs := make([]VMCreate, 3)
		for i := range reqs {
			reqs[i] = VMCreate{
				ID:     fmt.Sprintf("vm-%d-%d", round, i),
				VCPUs:  1 + i%2,
				Memory: brick.GiB,
				Remote: brick.Bytes(i%2) * brick.GiB,
			}
		}
		seqRes, seqErr := seqPod.CreateVMs(reqs, 2)
		pipRes, pipErr := bp.CreateVMs(reqs)
		if (seqErr == nil) != (pipErr == nil) {
			t.Fatalf("round %d: facade err=%v, pipeline err=%v", round, seqErr, pipErr)
		}
		if seqErr != nil {
			continue
		}
		if !reflect.DeepEqual(seqRes, pipRes) {
			t.Fatalf("round %d: pipeline results diverge\n%+v\n%+v", round, pipRes, seqRes)
		}
		if bp.Now() != seqPod.Now() || pipPod.Now() != seqPod.Now() {
			t.Fatalf("round %d: clocks diverge: pipeline %v, target %v, facade %v", round, bp.Now(), pipPod.Now(), seqPod.Now())
		}
		if bp.InFlight() != 0 {
			t.Fatalf("round %d: depth-1 pipeline left %d bursts in flight", round, bp.InFlight())
		}
	}
	seqRes, seqErr := seqPod.DestroyVMs([]string{"vm-3-2", "vm-3-1", "vm-3-0"}, 2)
	pipRes, pipErr := bp.DestroyVMs([]string{"vm-3-2", "vm-3-1", "vm-3-0"})
	if seqErr != nil || pipErr != nil {
		t.Fatalf("teardown: facade err=%v, pipeline err=%v", seqErr, pipErr)
	}
	if !reflect.DeepEqual(seqRes, pipRes) {
		t.Fatalf("teardown results diverge\n%+v\n%+v", pipRes, seqRes)
	}
	if bp.Now() != seqPod.Now() {
		t.Fatalf("teardown: clocks diverge: pipeline %v, facade %v", bp.Now(), seqPod.Now())
	}
	if got, want := podFingerprint(pipPod), podFingerprint(seqPod); got != want {
		t.Fatalf("state fingerprints diverge\n%s\n%s", got, want)
	}
}

// TestPipelineEquivalence is the randomized pipelined-vs-sequential
// harness: twin pods run an identical interleaved create / destroy /
// consolidate schedule — one through the facade, one through a
// BatchPipeline — across both placement policies, worker counts 1/4/8
// and pipeline depths 1/2. Placement state must match after every
// step, the pipeline clock must never run behind its own joins nor
// ahead of the serialized facade clock, and the drained makespan must
// not exceed the sequential one.
func TestPipelineEquivalence(t *testing.T) {
	for _, policy := range []sdm.Policy{sdm.PolicyPowerAware, sdm.PolicySpread} {
		for _, workers := range []int{1, 4, 8} {
			for _, depth := range []int{1, 2} {
				t.Run(fmt.Sprintf("policy=%v/workers=%d/depth=%d", policy, workers, depth), func(t *testing.T) {
					seqPod, err := NewPod(pipelinePodConfig(4, policy))
					if err != nil {
						t.Fatal(err)
					}
					pipPod, err := NewPod(pipelinePodConfig(4, policy))
					if err != nil {
						t.Fatal(err)
					}
					bp, err := NewBatchPipeline(pipPod, depth, workers)
					if err != nil {
						t.Fatal(err)
					}
					rng := sim.NewRand(41)
					var live []string
					nextID := 0
					step := func(n int, op string) {
						t.Helper()
						if got, want := podFingerprint(pipPod), podFingerprint(seqPod); got != want {
							t.Fatalf("step %d (%s): fingerprints diverge\npipeline:\n%s\nfacade:\n%s", n, op, got, want)
						}
						for _, id := range live {
							sr, sok := seqPod.VMRack(id)
							pr, pok := pipPod.VMRack(id)
							if !sok || !pok || sr != pr {
								t.Fatalf("step %d (%s): VM %q on rack %d/%v via pipeline, %d/%v via facade", n, op, id, pr, pok, sr, sok)
							}
						}
						if err := pipPod.Scheduler().CheckInvariants(); err != nil {
							t.Fatalf("step %d (%s): %v", n, op, err)
						}
						if bp.Now() > seqPod.Now() {
							t.Fatalf("step %d (%s): pipeline clock %v ahead of serialized %v", n, op, bp.Now(), seqPod.Now())
						}
					}
					for n := 0; n < 30; n++ {
						switch rng.Uint64() % 4 {
						case 0, 1: // arrival burst
							k := 1 + int(rng.Uint64()%4)
							reqs := make([]VMCreate, k)
							for i := range reqs {
								reqs[i] = VMCreate{
									ID:     fmt.Sprintf("vm-%d", nextID+i),
									VCPUs:  1 + int(rng.Uint64()%2),
									Memory: brick.Bytes(1+rng.Uint64()%2) * brick.GiB / 2,
									Remote: brick.Bytes(rng.Uint64()%3) * brick.GiB / 2,
								}
							}
							_, seqErr := seqPod.CreateVMs(reqs, workers)
							_, pipErr := bp.CreateVMs(reqs)
							if (seqErr == nil) != (pipErr == nil) {
								t.Fatalf("step %d: facade err=%v, pipeline err=%v", n, seqErr, pipErr)
							}
							if seqErr == nil {
								for _, r := range reqs {
									live = append(live, r.ID)
								}
								nextID += k
							}
							step(n, "create")
						case 2: // departure burst, safe LIFO suffix
							if len(live) == 0 {
								continue
							}
							k := 1 + int(rng.Uint64()%3)
							if k > len(live) {
								k = len(live)
							}
							var ids []string
							for i := len(live) - 1; i >= len(live)-k; i-- {
								ids = append(ids, live[i])
							}
							_, seqErr := seqPod.DestroyVMs(ids, workers)
							_, pipErr := bp.DestroyVMs(ids)
							if (seqErr == nil) != (pipErr == nil) {
								t.Fatalf("step %d: facade err=%v, pipeline err=%v", n, seqErr, pipErr)
							}
							if seqErr == nil {
								live = live[:len(live)-k]
							}
							step(n, "destroy")
						case 3: // maintenance runs on the drained facade
							bp.Drain()
							seqPod.Consolidate()
							rep := pipPod.Consolidate()
							bp.Advance(rep.Latency + rep.MoveDowntime)
							step(n, "consolidate")
						}
					}
					drained := bp.Drain()
					if drained > seqPod.Now() {
						t.Fatalf("drained pipeline clock %v exceeds serialized %v", drained, seqPod.Now())
					}
					if depth == 1 && drained != seqPod.Now() {
						t.Fatalf("depth-1 drained clock %v != serialized %v", drained, seqPod.Now())
					}
				})
			}
		}
	}
}

// TestPipelineOverlapsBoots: at depth >= 2 the controller stops paying
// for boots — after two bursts the pipeline clock trails the facade
// clock by the boot time still in flight, and tearing down a VM from
// an in-flight burst first joins that burst's boot horizon.
func TestPipelineOverlapsBoots(t *testing.T) {
	pod, err := NewPod(batchPodConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	bp, err := NewBatchPipeline(pod, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		reqs := []VMCreate{
			{ID: fmt.Sprintf("vm-%d-0", round), VCPUs: 1, Memory: brick.GiB},
			{ID: fmt.Sprintf("vm-%d-1", round), VCPUs: 1, Memory: brick.GiB, Remote: brick.GiB},
		}
		if _, err := bp.CreateVMs(reqs); err != nil {
			t.Fatal(err)
		}
	}
	if bp.InFlight() != 2 {
		t.Fatalf("%d bursts in flight, want 2", bp.InFlight())
	}
	if bp.Now() >= pod.Now() {
		t.Fatalf("pipeline clock %v not ahead of the serialized facade %v", bp.Now(), pod.Now())
	}
	// Destroying a VM from burst 0 joins burst 0 (but not burst 1).
	clock := bp.Now()
	if _, err := bp.DestroyVMs([]string{"vm-0-1"}); err != nil {
		t.Fatal(err)
	}
	if bp.InFlight() != 1 {
		t.Fatalf("%d bursts in flight after dependent teardown, want 1", bp.InFlight())
	}
	if bp.Now() <= clock {
		t.Fatal("dependent teardown did not stall on its burst's boot horizon")
	}
	// Drain catches the pipeline clock up to every remaining horizon.
	drained := bp.Drain()
	if bp.InFlight() != 0 || drained != bp.Now() {
		t.Fatalf("drain left %d bursts in flight at %v (clock %v)", bp.InFlight(), drained, bp.Now())
	}
}

// TestPipelineRowTier drives the row facade through a depth-2 pipeline
// against a sequential twin: placements match and the pipeline clock
// overlaps boots across pods too.
func TestPipelineRowTier(t *testing.T) {
	mk := func() *Row {
		cfg := DefaultRowConfig(2, 2)
		base := batchPodConfig(2)
		cfg.Rack = base.Rack
		row, err := NewRow(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return row
	}
	seqRow, pipRow := mk(), mk()
	bp, err := NewBatchPipeline(pipRow, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	var live []string
	for round := 0; round < 3; round++ {
		reqs := make([]VMCreate, 4)
		for i := range reqs {
			reqs[i] = VMCreate{ID: fmt.Sprintf("vm-%d-%d", round, i), VCPUs: 1 + i%2, Memory: brick.GiB, Remote: brick.Bytes(i%2) * brick.GiB}
		}
		if _, err := seqRow.CreateVMs(reqs, 4); err != nil {
			t.Fatal(err)
		}
		if _, err := bp.CreateVMs(reqs); err != nil {
			t.Fatal(err)
		}
		for _, r := range reqs {
			live = append(live, r.ID)
		}
	}
	for _, id := range live {
		sp, sr, _ := seqRow.VMLoc(id)
		pp, pr, ok := pipRow.VMLoc(id)
		if !ok || sp != pp || sr != pr {
			t.Fatalf("VM %q at pod %d rack %d via pipeline, pod %d rack %d via facade", id, pp, pr, sp, sr)
		}
	}
	if bp.Now() >= seqRow.Now() {
		t.Fatalf("pipeline clock %v not ahead of serialized %v", bp.Now(), seqRow.Now())
	}
	if _, err := bp.DestroyVMs(live); err != nil {
		t.Fatal(err)
	}
	if _, err := seqRow.DestroyVMs(live, 4); err != nil {
		t.Fatal(err)
	}
	if bp.Drain() > seqRow.Now() {
		t.Fatalf("drained pipeline clock %v exceeds serialized %v", bp.Drain(), seqRow.Now())
	}
	if err := pipRow.Scheduler().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
