package brick

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

// TestLargestGapIncremental drives randomized carve/release sequences
// and checks the incrementally maintained LargestGap against the
// brute-force segment-list scan after every mutation.
func TestLargestGapIncremental(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		rng := sim.NewRand(seed)
		m := NewMemory(topo.BrickID{}, MemoryConfig{Capacity: 64 * MiB})
		m.PowerOn()
		var live []*Segment
		check := func(step int, op string) {
			t.Helper()
			if got, want := m.LargestGap(), m.LargestGapScan(); got != want {
				t.Fatalf("seed %d step %d after %s: LargestGap=%v, scan says %v (%d segments)",
					seed, step, op, got, want, len(m.segments))
			}
		}
		check(0, "init")
		for step := 0; step < 2000; step++ {
			// Bias toward carves so the brick fills and fragments; carve
			// sizes span sub-MiB to multi-MiB so gaps split unevenly.
			if len(live) == 0 || rng.Uint64()%10 < 6 {
				size := Bytes(1 + rng.Uint64()%(4*uint64(MiB)))
				seg, err := m.Carve(size, "t")
				if err == nil {
					live = append(live, seg)
				}
				check(step, "carve")
				continue
			}
			i := int(rng.Uint64() % uint64(len(live)))
			seg := live[i]
			live = append(live[:i], live[i+1:]...)
			if err := m.Release(seg); err != nil {
				t.Fatalf("seed %d step %d: release: %v", seed, step, err)
			}
			check(step, "release")
		}
		// Drain completely: the gap multiset must collapse back to one
		// capacity-sized gap.
		for _, seg := range live {
			if err := m.Release(seg); err != nil {
				t.Fatalf("seed %d drain: %v", seed, err)
			}
		}
		if m.LargestGap() != m.Capacity {
			t.Fatalf("seed %d drained: LargestGap=%v, want %v", seed, m.LargestGap(), m.Capacity)
		}
		if m.Free() != m.Capacity {
			t.Fatalf("seed %d drained: Free=%v, want %v", seed, m.Free(), m.Capacity)
		}
	}
}
