package sdm

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// fanout is the reusable scratch behind every parallel fan-out in the
// batch engines — the atomic work counter and the WaitGroup that every
// call used to allocate fresh. One instance lives on each scheduler
// and is reused across calls, which is safe because a scheduler's
// phases run sequentially: partition, then plan, then commit — no two
// fan-outs of the same scheduler ever overlap. (Cross-tier nesting —
// a row wave driving pod engines — lands on the pods' own instances.)
type fanout struct {
	next atomic.Int64
	n    int
	fn   func(i int)
	wg   sync.WaitGroup
}

// work is the body every pool goroutine runs: pull the next index off
// the shared counter until the range is exhausted.
func (f *fanout) work() {
	defer f.wg.Done()
	for {
		i := int(f.next.Add(1)) - 1
		if i >= f.n {
			return
		}
		f.fn(i)
	}
}

// run executes fn(0..n-1) on a pool of at most workers goroutines,
// handing out indexes through the shared atomic counter. Callers
// guarantee the iterations write disjoint state, so scheduling order
// cannot affect the outcome. workers <= 1 runs inline and allocates
// nothing — the path the alloc-free steady-state tests pin.
func (f *fanout) run(workers, n int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	f.next.Store(0)
	f.n, f.fn = n, fn
	f.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go f.work()
	}
	f.wg.Wait()
	f.fn = nil
}

// resolveWorkers maps the public worker-count contract (<= 0 means
// GOMAXPROCS) onto a concrete pool size.
func resolveWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}
