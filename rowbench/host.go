package main

import (
	"runtime"
	"strings"
)

// host is the machine shape recorded with every result.
type host struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Workers    int    `json:"workers"`
	Seed       uint64 `json:"seed"`
	// Flagged marks a run whose GOMAXPROCS is below the engine worker
	// count: its multi-core numbers were not measured on real cores.
	Flagged bool `json:"gomaxprocs_below_workers"`
}

func hostShape(seed uint64) host {
	procs := runtime.GOMAXPROCS(0)
	return host{
		GOMAXPROCS: procs,
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Workers:    workers,
		Seed:       seed,
		Flagged:    procs < workers,
	}
}

// brandString decodes the CPUID brand-string leaves' register words.
func brandString(words []uint32) string {
	b := make([]byte, 0, 4*len(words))
	for _, w := range words {
		b = append(b, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
	}
	return strings.TrimSpace(strings.TrimRight(string(b), "\x00"))
}
