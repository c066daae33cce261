package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"slices"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of xs by nearest rank,
// refusing when fewer than minBeyond samples lie above it: a 99th
// percentile needs at least 1,000 samples. xs is sorted in place.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if n == 0 || n-rank < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", q*100, minBeyond, max(n-rank, 0), n)
	}
	slices.Sort(xs)
	return xs[rank-1], nil
}

// windowed splits xs, in call order, into consecutive windows of at
// least minBeyond/(1-q) samples, the fewest with ten beyond the
// q-quantile (one window if there are fewer), and returns the median
// over the windows of each window's q-quantile, so host noise in part
// of the run moves some windows rather than the reported figure.
func windowed(xs []float64, q float64) (float64, error) {
	size := int(math.Round(minBeyond / (1 - q)))
	k := max(len(xs)/size, 1)
	vals := make([]float64, 0, k)
	for i := 0; i < k; i++ {
		v, err := percentile(slices.Clone(xs[i*len(xs)/k:(i+1)*len(xs)/k]), q)
		if err != nil {
			return 0, err
		}
		vals = append(vals, v)
	}
	return median(vals), nil
}

// median returns the middle value of xs (mean of the two middle ones
// for even n), sorting xs in place; 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	slices.Sort(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// runtimeSample is a read of the Go runtime's cumulative counters.
type runtimeSample struct {
	gcCycles, allocBytes, allocObjects uint64
	gcCPU, totalCPU                    float64
}

var runtimeNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		gcCycles:     s[0].Value.Uint64(),
		allocBytes:   s[1].Value.Uint64(),
		allocObjects: s[2].Value.Uint64(),
		gcCPU:        s[3].Value.Float64(),
		totalCPU:     s[4].Value.Float64(),
	}
}
