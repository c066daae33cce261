package sdm

// Randomized worker-count equivalence property tests for the
// group-commit engines: twin schedulers — the reference driven at
// workers=1, the test twin at 2/4/8 — put through identical
// admission/eviction churn must produce byte-identical results, errors,
// counters and final snapshots. The tight scenario concentrates
// attach-only load on one hot rack so cross-rack spills, spills doomed
// into the packet fallback and cross teardowns all run behind the
// shard-parallel commit waves.

import (
	"fmt"
	"testing"

	"repro/internal/brick"
	"repro/internal/sim"
)

// admittedPair tracks one committed admission on both twins so churn can
// evict through each twin's own attachment pointers.
type admittedPair struct {
	req      AdmitRequest
	ref, par AdmitResult
}

// evictPair builds the twin EvictRequests for one admitted pair.
func evictPair(a admittedPair) (EvictRequest, EvictRequest) {
	refEv := EvictRequest{
		Owner: a.req.Owner, CPU: a.ref.CPU, Rack: a.ref.Rack, Pod: a.ref.Pod,
		VCPUs: a.req.VCPUs, LocalMem: a.req.LocalMem,
	}
	if a.ref.Att != nil {
		refEv.Atts = []*Attachment{a.ref.Att}
	}
	parEv := EvictRequest{
		Owner: a.req.Owner, CPU: a.par.CPU, Rack: a.par.Rack, Pod: a.par.Pod,
		VCPUs: a.req.VCPUs, LocalMem: a.req.LocalMem,
	}
	if a.par.Att != nil {
		parEv.Atts = []*Attachment{a.par.Att}
	}
	return refEv, parEv
}

// sameErr asserts both twins failed (or succeeded) identically.
func sameErr(t *testing.T, where string, refErr, parErr error) bool {
	t.Helper()
	if (refErr == nil) != (parErr == nil) {
		t.Fatalf("%s: reference err=%v, parallel err=%v", where, refErr, parErr)
	}
	if refErr != nil && refErr.Error() != parErr.Error() {
		t.Fatalf("%s: error text diverges:\nreference: %v\nparallel:  %v", where, refErr, parErr)
	}
	return refErr == nil
}

// hotRackRequests builds the tight trace: a quarter compute boots, the
// rest attach-only scale-ups aimed at CPUs in the first placement's rack
// — overflowing that rack's memory every round so the burst spills
// cross-rack (and, once the pod's circuits run dry, falls back to
// packet mode) while pod-wide capacity still holds.
func hotRackRequests(rng *sim.Rand, n, round int, placed []AdmitResult) []AdmitRequest {
	reqs := make([]AdmitRequest, 0, n)
	var hot []AdmitResult
	if len(placed) > 0 {
		hotRack := placed[0].Rack
		for _, p := range placed {
			if p.Rack == hotRack {
				hot = append(hot, p)
			}
		}
	}
	for i := 0; i < n; i++ {
		owner := fmt.Sprintf("vm-%d-%d", round, i)
		if len(hot) == 0 || i%4 == 0 {
			reqs = append(reqs, AdmitRequest{Owner: owner, VCPUs: 1, LocalMem: brick.MiB})
			continue
		}
		p := hot[rng.Uint64()%uint64(len(hot))]
		reqs = append(reqs, AdmitRequest{Owner: owner, VCPUs: 0, Remote: brick.GiB, CPU: p.CPU, Rack: p.Rack})
	}
	return reqs
}

// TestPodBatchWorkersMatchSerial is the pod-tier equivalence property:
// randomized admission/eviction churn on twin pods, the reference at
// workers=1, across policies, worker counts and an ample/tight capacity
// split. Churn retires the newest half of the live population each
// round, newest first, so packet riders always precede their circuit
// hosts into EvictBatch.
func TestPodBatchWorkersMatchSerial(t *testing.T) {
	scenarios := []struct {
		name                      string
		racks, computes, memories int
		memCap                    brick.Bytes
		rounds, n                 int
		gen                       func(rng *sim.Rand, n, round int, placed []AdmitResult) []AdmitRequest
	}{
		{name: "ample", racks: 4, computes: 3, memories: 3, memCap: 16 * brick.GiB, rounds: 3, n: 48,
			gen: func(rng *sim.Rand, n, round int, placed []AdmitResult) []AdmitRequest {
				return batchTestRequests(rng, n, placed)
			}},
		{name: "tight", racks: 3, computes: 3, memories: 2, memCap: 8 * brick.GiB, rounds: 5, n: 32,
			gen: hotRackRequests},
	}
	for _, policy := range []Policy{PolicyPowerAware, PolicySpread} {
		for _, sc := range scenarios {
			for _, workers := range []int{2, 4, 8} {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", policy, sc.name, workers), func(t *testing.T) {
					cfg := DefaultConfig
					cfg.Policy = policy
					cfg.PacketFallback = true
					ref := buildBatchPod(t, sc.racks, sc.computes, sc.memories, sc.memCap, cfg)
					par := buildBatchPod(t, sc.racks, sc.computes, sc.memories, sc.memCap, cfg)
					ref.PowerOnAll()
					par.PowerOnAll()

					rng := sim.NewRand(61)
					var placed []AdmitResult
					var live []admittedPair
					for round := 0; round < sc.rounds; round++ {
						reqs := sc.gen(rng, sc.n, round, placed)
						refOut, refErr := ref.AdmitBatch(reqs, 1)
						parOut, parErr := par.AdmitBatch(append([]AdmitRequest(nil), reqs...), workers)
						if !sameErr(t, fmt.Sprintf("round %d admit", round), refErr, parErr) {
							continue
						}
						for i := range refOut {
							if got, want := flattenResult(parOut[i]), flattenResult(refOut[i]); got != want {
								t.Fatalf("round %d req %d: parallel %+v != reference %+v", round, i, got, want)
							}
							placed = append(placed, refOut[i])
							live = append(live, admittedPair{req: reqs[i], ref: refOut[i], par: parOut[i]})
						}

						var refEv, parEv []EvictRequest
						half := len(live) / 2
						for k := len(live) - 1; k >= half; k-- {
							r, p := evictPair(live[k])
							refEv = append(refEv, r)
							parEv = append(parEv, p)
						}
						live = live[:half]
						refEvOut, refEvErr := ref.EvictBatch(refEv, 1)
						parEvOut, parEvErr := par.EvictBatch(parEv, workers)
						if !sameErr(t, fmt.Sprintf("round %d evict", round), refEvErr, parEvErr) {
							continue
						}
						for i := range refEvOut {
							if refEvOut[i] != parEvOut[i] {
								t.Fatalf("round %d evict %d: parallel %+v != reference %+v",
									round, i, parEvOut[i], refEvOut[i])
							}
						}
					}

					if got, want := podSnapshotJSON(t, par), podSnapshotJSON(t, ref); got != want {
						t.Fatalf("final pod snapshots diverge:\nparallel:\n%s\nreference:\n%s", got, want)
					}
					rr, rf, rs := ref.Stats()
					pr, pf, ps := par.Stats()
					if rr != pr || rf != pf || rs != ps {
						t.Fatalf("pod counters diverge: reference %d/%d/%d, parallel %d/%d/%d", rr, rf, rs, pr, pf, ps)
					}
				})
			}
		}
	}
}

// rowMixedRequests builds a mixed row-tier admission trace: VM boots with
// and without remote memory, plus attach-only scale-ups against CPUs the
// trace already placed (carrying their full row coordinates).
func rowMixedRequests(rng *sim.Rand, n, round int, placed []AdmitResult) []AdmitRequest {
	reqs := make([]AdmitRequest, 0, n)
	for i := 0; i < n; i++ {
		owner := fmt.Sprintf("vm-%d-%d", round, i)
		switch rng.Uint64() % 4 {
		case 0: // compute only
			reqs = append(reqs, AdmitRequest{Owner: owner, VCPUs: 1, LocalMem: brick.MiB})
		case 1, 2: // compute + remote
			reqs = append(reqs, AdmitRequest{
				Owner: owner, VCPUs: 1, LocalMem: brick.MiB,
				Remote: brick.Bytes(1+rng.Uint64()%2) * brick.GiB,
			})
		default: // attach-only scale-up of an already-placed VM
			if len(placed) == 0 {
				reqs = append(reqs, AdmitRequest{Owner: owner, VCPUs: 1, LocalMem: brick.MiB, Remote: brick.GiB})
				continue
			}
			p := placed[rng.Uint64()%uint64(len(placed))]
			reqs = append(reqs, AdmitRequest{Owner: owner, VCPUs: 0, Remote: brick.GiB, CPU: p.CPU, Rack: p.Rack, Pod: p.Pod})
		}
	}
	return reqs
}

// rowResultKey projects a row AdmitResult (including its pod coordinate)
// onto a comparable value.
func rowResultKey(r AdmitResult) string {
	return fmt.Sprintf("pod%d/%+v", r.Pod, flattenResult(r))
}

// TestRowBatchWorkersMatchSerial is the row-tier equivalence property:
// the same churn scheme one tier up, on a row small enough that bursts
// saturate pods and spill cross-pod — driving the row's sharded plan and
// commit waves, cross-pod spills and cross-pod teardowns against the
// workers=1 reference.
func TestRowBatchWorkersMatchSerial(t *testing.T) {
	for _, policy := range []Policy{PolicyPowerAware, PolicySpread} {
		for _, workers := range []int{2, 4, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", policy, workers), func(t *testing.T) {
				cfg := DefaultConfig
				cfg.Policy = policy
				cfg.PacketFallback = true
				ref := buildRowSched(t, 4, 2, 2*brick.GiB, cfg)
				par := buildRowSched(t, 4, 2, 2*brick.GiB, cfg)
				ref.PowerOnAll()
				par.PowerOnAll()

				rng := sim.NewRand(73)
				var placed []AdmitResult
				var live []admittedPair
				for round := 0; round < 4; round++ {
					reqs := rowMixedRequests(rng, 32, round, placed)
					refOut, refErr := ref.AdmitBatch(reqs, 1)
					parOut, parErr := par.AdmitBatch(append([]AdmitRequest(nil), reqs...), workers)
					if !sameErr(t, fmt.Sprintf("round %d admit", round), refErr, parErr) {
						continue
					}
					for i := range refOut {
						if got, want := rowResultKey(parOut[i]), rowResultKey(refOut[i]); got != want {
							t.Fatalf("round %d req %d: parallel %s != reference %s", round, i, got, want)
						}
						placed = append(placed, refOut[i])
						live = append(live, admittedPair{req: reqs[i], ref: refOut[i], par: parOut[i]})
					}

					var refEv, parEv []EvictRequest
					half := len(live) / 2
					for k := len(live) - 1; k >= half; k-- {
						r, p := evictPair(live[k])
						refEv = append(refEv, r)
						parEv = append(parEv, p)
					}
					live = live[:half]
					refEvOut, refEvErr := ref.EvictBatch(refEv, 1)
					parEvOut, parEvErr := par.EvictBatch(parEv, workers)
					if !sameErr(t, fmt.Sprintf("round %d evict", round), refEvErr, parEvErr) {
						continue
					}
					for i := range refEvOut {
						if refEvOut[i] != parEvOut[i] {
							t.Fatalf("round %d evict %d: parallel %+v != reference %+v",
								round, i, parEvOut[i], refEvOut[i])
						}
					}
				}

				if got, want := rowFingerprint(t, par, true), rowFingerprint(t, ref, true); got != want {
					t.Fatalf("final row fingerprints diverge:\nparallel:\n%s\nreference:\n%s", got, want)
				}
				for _, s := range []*RowScheduler{ref, par} {
					if err := s.CheckInvariants(); err != nil {
						t.Fatal(err)
					}
				}
				rr, rf, rs := ref.Stats()
				pr, pf, ps := par.Stats()
				if rr != pr || rf != pf || rs != ps {
					t.Fatalf("row counters diverge: reference %d/%d/%d, parallel %d/%d/%d", rr, rf, rs, pr, pf, ps)
				}
			})
		}
	}
}
