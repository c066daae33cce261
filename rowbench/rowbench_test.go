package main

import (
	"runtime"
	"strings"
	"testing"
)

// tiny shrinks a workload to a 2×2 row with a handful of VMs, keeping
// its op mix.
func tiny(t *testing.T, name string) workload {
	t.Helper()
	w, ok := lookupWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	w.pods, w.racks = 2, 2
	w.burst = min(w.burst, 4)
	w.elastic = min(w.elastic, 16)
	if w.residents > 0 {
		// 32 compute bricks: 24 residents, and 4 churning VMs plus a
		// burst of 4 in flight.
		w.residents, w.population = 24, 4
	} else {
		w.population = 32
	}
	return w
}

const tinyRounds = 40

func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			w := tiny(t, w.name)
			e, err := build(w, 1, false)
			if err != nil {
				t.Fatal(err)
			}
			p, err := e.alone(tinyRounds)
			if err != nil {
				t.Fatal(err)
			}
			if want := int64(tinyRounds * (w.pairs*2*w.burst + w.elastic)); p.attempted() != want {
				t.Errorf("attempted %d VM-level ops, want %d", p.attempted(), want)
			}
			res, err := traced(w, 1, tinyRounds, "")
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Metrics) == 0 {
				t.Error("traced run reported no metrics")
			}
		})
	}
}

func TestDrainCheckFiresOnLiveVM(t *testing.T) {
	w := tiny(t, "row-trickle")
	e, err := build(w, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	// The tiny warm fill makes no scale-ups, so the VM hidden from the
	// client stays booted through the drain.
	left := e.c.vms[len(e.c.vms)-1]
	if left.bound >= 0 {
		t.Fatalf("VM %s holds scale-ups", left.name)
	}
	e.c.vms = e.c.vms[:len(e.c.vms)-1]
	err = e.drain()
	if err == nil || !strings.HasPrefix(err.Error(), "drain: ") {
		t.Fatalf("drain leaving one VM alive: got %v, want a drain check failure", err)
	}
	e.c.vms = append(e.c.vms, left)
	if err := e.drain(); err != nil {
		t.Fatalf("full drain after it: %v", err)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	if _, err := percentile(seq(999), 0.99); err == nil {
		t.Error("p99 of 999 samples accepted; it has 9 beyond it")
	}
	if v, err := percentile(seq(1000), 0.99); err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990 with 10 beyond", v, err)
	}
	if _, err := percentile(seq(19), 0.5); err == nil {
		t.Error("p50 of 19 samples accepted; it has 9 beyond it")
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("percentile of no samples accepted")
	}
	// 2,500 samples make two windows of 1,250; each needs its own ten.
	if _, err := windowed(seq(2500), 0.99); err != nil {
		t.Errorf("windowed p99 of 2500 samples: %v", err)
	}
	if _, err := windowed(seq(999), 0.99); err == nil {
		t.Error("windowed p99 of 999 samples accepted")
	}
	// A p90 window is 100 samples: 250 make two windows of 125.
	if _, err := windowed(seq(250), 0.90); err != nil {
		t.Errorf("windowed p90 of 250 samples: %v", err)
	}
	if _, err := windowed(seq(100), 0.90); err != nil {
		t.Errorf("windowed p90 of 100 samples: %v", err)
	}
	if _, err := windowed(seq(99), 0.90); err == nil {
		t.Error("windowed p90 of 99 samples accepted")
	}
}

func TestOutcomesRepeatForSeed(t *testing.T) {
	run := func(seed uint64) phase {
		e, err := build(tiny(t, "scale-elastic"), seed, false)
		if err != nil {
			t.Fatal(err)
		}
		p, err := e.alone(tinyRounds)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := run(7), run(7)
	if a.refused != b.refused || a.simDelay != b.simDelay || a.simOps != b.simOps || a.digest != b.digest {
		t.Errorf("seed 7 twice: refused %d/%d, sim delay %v/%v over %d/%d ops, digest %x/%x",
			a.refused, b.refused, a.simDelay, b.simDelay, a.simOps, b.simOps, a.digest, b.digest)
	}
	if c := run(8); c.digest == a.digest {
		t.Error("seeds 7 and 8 placed identically")
	}
}

func TestHostShapeFlagsMissingCores(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	if h := hostShape(1); !h.Flagged || h.GOMAXPROCS != 1 {
		t.Errorf("GOMAXPROCS 1 under %d workers: %+v, want flagged", workers, h)
	}
	if got := brandString([]uint32{0x65746e49, 0x0000006c}); got != "Intel" {
		t.Errorf("brand string %q, want Intel", got)
	}
}
