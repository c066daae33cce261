package main

import (
	"bufio"
	"strings"
	"testing"
)

// benchOutput renders a minimal `go test -bench` transcript whose
// benchmark lines carry the given names.
func benchOutput(names ...string) string {
	var b strings.Builder
	b.WriteString("goos: linux\ngoarch: amd64\npkg: repro\n")
	for _, n := range names {
		b.WriteString(n + "\t     500\t   2000 ns/op\t  12.5 placements/s\t   0 allocs/op\n")
	}
	b.WriteString("PASS\n")
	return b.String()
}

func parseNames(t *testing.T, in string, procs int) (Baseline, []string) {
	t.Helper()
	got, err := parse(bufio.NewScanner(strings.NewReader(in)), procs)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(got.Benchmarks))
	for i, b := range got.Benchmarks {
		names[i] = b.Name
	}
	return got, names
}

// TestParseStripsGOMAXPROCSSuffix pins host-independent names: the
// -<GOMAXPROCS> suffix `go test` appends above one proc is stripped, and
// only that suffix — a sub-benchmark parameter like pods-8 survives.
func TestParseStripsGOMAXPROCSSuffix(t *testing.T) {
	cases := []struct {
		procs int
		in    []string
		want  []string
	}{
		{2, []string{"BenchmarkFig10Row/pods-8-2", "BenchmarkChurn/batch-2"},
			[]string{"BenchmarkFig10Row/pods-8", "BenchmarkChurn/batch"}},
		{1, []string{"BenchmarkFig10Row/pods-8", "BenchmarkChurn/batch"},
			[]string{"BenchmarkFig10Row/pods-8", "BenchmarkChurn/batch"}},
		// At 8 procs the suffix equals the parameter; only the appended
		// copy goes.
		{8, []string{"BenchmarkFig10Row/pods-8-8", "BenchmarkFig10Row/pods-16-8"},
			[]string{"BenchmarkFig10Row/pods-8", "BenchmarkFig10Row/pods-16"}},
	}
	for _, c := range cases {
		got, names := parseNames(t, benchOutput(c.in...), c.procs)
		if strings.Join(names, ",") != strings.Join(c.want, ",") {
			t.Errorf("procs=%d: names %q, want %q", c.procs, names, c.want)
		}
		if got.GOMAXPROCS != c.procs {
			t.Errorf("procs=%d: recorded gomaxprocs %d", c.procs, got.GOMAXPROCS)
		}
		if v := got.Benchmarks[0].Metrics["placements/s"]; v != 12.5 {
			t.Errorf("procs=%d: placements/s = %v, want 12.5", c.procs, v)
		}
	}
}

// TestShapeWarning pins the machine-shape check of -compare: one line
// when GOMAXPROCS or NumCPU differ, nothing when they match, and a
// field the baseline does not record reads as 1.
func TestShapeWarning(t *testing.T) {
	cases := []struct {
		name        string
		base, fresh Baseline
		warn        bool
	}{
		{"same shape", Baseline{GOMAXPROCS: 2, NumCPU: 2}, Baseline{GOMAXPROCS: 2, NumCPU: 2}, false},
		{"gomaxprocs differs", Baseline{GOMAXPROCS: 1, NumCPU: 2}, Baseline{GOMAXPROCS: 2, NumCPU: 2}, true},
		{"numcpu differs", Baseline{GOMAXPROCS: 2, NumCPU: 2}, Baseline{GOMAXPROCS: 2, NumCPU: 4}, true},
		{"unrecorded reads as 1", Baseline{}, Baseline{GOMAXPROCS: 1, NumCPU: 1}, false},
		{"unrecorded vs multi-core", Baseline{}, Baseline{GOMAXPROCS: 2, NumCPU: 2}, true},
		{"unrecorded numcpu only", Baseline{GOMAXPROCS: 2}, Baseline{GOMAXPROCS: 2, NumCPU: 2}, true},
	}
	for _, c := range cases {
		w := shapeWarning(c.base, c.fresh)
		if (w != "") != c.warn {
			t.Errorf("%s: warning %q, want warning=%v", c.name, w, c.warn)
		}
		if strings.Contains(w, "\n") {
			t.Errorf("%s: warning spans lines: %q", c.name, w)
		}
	}
}
