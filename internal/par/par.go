// Package par provides the bounded fork-join helpers used to run
// per-tree simulations and per-subtree DP solves in parallel. Work
// items write into caller-preallocated, index-addressed storage and
// draw randomness from per-item derived streams, so results are
// identical whatever the worker count or scheduling order.
//
// Worker-count semantics, shared by every helper: workers <= 0 selects
// runtime.GOMAXPROCS(0) (the number of goroutines the scheduler will
// actually run, respecting cgroup/taskset limits — not the raw CPU
// count); the count is then clamped to n so no goroutine is spawned
// without work; workers == 1 runs inline on the caller's goroutine. A
// panic in fn is captured and re-raised on the calling goroutine after
// the remaining workers drain, instead of crashing the process from a
// worker (the first panic wins; its stack is preserved via the
// re-panicked value).
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// panicBox carries a worker panic back to the waiting caller.
type panicBox struct {
	mu  sync.Mutex
	val any
	set bool
}

func (p *panicBox) capture() {
	if r := recover(); r != nil {
		p.mu.Lock()
		if !p.set {
			p.val, p.set = r, true
		}
		p.mu.Unlock()
	}
}

// rethrow re-raises the first captured panic, if any. Callers invoke it
// after wg.Wait(), whose happens-before edge makes the unguarded reads
// safe.
func (p *panicBox) rethrow() {
	if p.set {
		panic(p.val)
	}
}

// clampWorkers resolves the shared worker-count semantics.
func clampWorkers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	return workers
}

// ForEach invokes fn(i) for every i in [0, n), using up to workers
// goroutines (see the package comment for the worker-count and panic
// semantics). It returns after every invocation has completed. fn must
// confine its side effects to index-addressed storage to keep the run
// deterministic.
func ForEach(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers = clampWorkers(workers, n); workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var pb panicBox
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer pb.capture()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	pb.rethrow()
}

// Map runs fn over [0, n) with ForEach and collects the results in
// order.
func Map[T any](n, workers int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(n, workers, func(i int) { out[i] = fn(i) })
	return out
}

// MapPooled is Map with worker-pinned state: every worker goroutine
// obtains one state from newState and threads it through each item it
// processes, so expensive per-worker resources — arena-backed solvers,
// retained scratch — are built once per worker instead of once per
// item and amortise across the whole sweep. fn must produce an output
// that depends only on the item itself (state reuse has to be
// reset-safe, as the solvers' Reset contract guarantees) so results
// are identical for every worker count and scheduling order. Worker
// count and panic semantics are as in the package comment.
func MapPooled[S, T any](n, workers int, newState func() S, fn func(state S, i int) T) []T {
	out := make([]T, n)
	if n <= 0 {
		return out
	}
	if workers = clampWorkers(workers, n); workers == 1 {
		s := newState()
		for i := 0; i < n; i++ {
			out[i] = fn(s, i)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var pb panicBox
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer pb.capture()
			s := newState()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = fn(s, i)
			}
		}()
	}
	wg.Wait()
	pb.rethrow()
	return out
}
