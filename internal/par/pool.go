package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a persistent team of worker goroutines for repeated
// fork-join sweeps. ForEach spawns fresh goroutines per call, which is
// fine for one-shot sweeps but allocates on every invocation; the
// incremental solvers re-run their bottom-up pass on every drift step
// and are benchmarked under a zero-alloc gate, so they need workers
// that outlive the call. A Pool's steady-state RunCancel performs no
// heap allocations: workers park on pre-allocated channels between runs
// and indices are handed out by an atomic cursor in small chunks
// (dynamic load balancing for the highly uneven per-node work of the
// DP waves).
//
// RunCancel(n, done, fn) invokes fn(worker, i) for every i in [0, n),
// where worker is a stable id in [0, Workers()) letting fn address
// per-worker state (arenas, scratch) without synchronisation. The caller's goroutine
// participates as worker 0. As with ForEach, fn must confine its side
// effects to index-addressed or worker-private storage; a panic in fn
// is re-raised on the caller after the sweep drains.
//
// A Pool is not safe for concurrent RunCancel calls. Close releases
// the worker goroutines; a finalizer-style cleanup also releases them when
// a still-open Pool becomes unreachable, so dropping a Pool without
// Close does not leak goroutines.
type Pool struct {
	sh *poolShared
}

// poolShared is the state the worker goroutines reference. It is split
// from Pool so that an unreachable Pool can be collected (triggering
// the cleanup) while its workers still park on the channels below —
// workers must not keep the Pool itself alive.
type poolShared struct {
	workers int
	start   []chan struct{} // one slot per spawned worker (ids 1..workers-1)
	done    chan struct{}

	// Per-run state, written by RunCancel before the workers wake and
	// read only while they run (the channel sends/receives order the
	// accesses).
	fn      func(worker, i int)
	n       int
	chunk   int
	stopC   <-chan struct{} // nil for sweeps that cannot be cancelled
	stopped atomic.Bool
	next    atomic.Int64
	pb      panicBox

	closeOnce sync.Once
}

// NewPool returns a pool with the given number of workers (clamped as
// described in the package comment: <= 0 selects runtime.GOMAXPROCS(0)).
// A one-worker pool spawns no goroutines and runs everything inline.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sh := &poolShared{workers: workers, done: make(chan struct{}, workers)}
	for w := 1; w < workers; w++ {
		c := make(chan struct{}, 1)
		sh.start = append(sh.start, c)
		go func() {
			for range c {
				sh.runWorker(w)
				sh.done <- struct{}{}
			}
		}()
	}
	p := &Pool{sh: sh}
	runtime.AddCleanup(p, func(sh *poolShared) { sh.close() }, sh)
	return p
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.sh.workers }

// RunCancel invokes fn(worker, i) for every i in [0, n) across the
// pool's workers and returns once all invocations completed; fn is not
// retained afterwards. Once done is closed, workers stop claiming new
// chunks (items already started run to completion). It reports whether
// every item was invoked; false means the sweep stopped early and an
// unspecified subset of items never ran. A nil done channel never
// stops the sweep. The steady state performs no heap allocation, which
// keeps cancellable drift re-solves inside the solver zero-alloc gate.
func (p *Pool) RunCancel(n int, done <-chan struct{}, fn func(worker, i int)) bool {
	if n <= 0 {
		return true
	}
	sh := p.sh
	if sh.workers == 1 || n == 1 {
		for i := 0; i < n; i++ {
			if done != nil {
				select {
				case <-done:
					return false
				default:
				}
			}
			fn(0, i)
		}
		return true
	}
	sh.fn, sh.n = fn, n
	sh.stopC = done
	sh.stopped.Store(false)
	// Chunked claiming bounds cursor contention on huge sweeps while
	// keeping chunks small enough to balance very uneven item costs.
	sh.chunk = max(1, min(64, n/(sh.workers*4)))
	sh.next.Store(0)
	sh.pb.val, sh.pb.set = nil, false
	for _, c := range sh.start {
		c <- struct{}{}
	}
	sh.runWorker(0)
	for range sh.start {
		<-sh.done
	}
	sh.fn = nil // release fn's captures while the pool idles
	sh.stopC = nil
	sh.pb.rethrow()
	return !sh.stopped.Load()
}

// runWorker drains chunks of the current sweep as worker w.
func (sh *poolShared) runWorker(w int) {
	defer sh.pb.capture()
	fn, n, chunk, stopC := sh.fn, sh.n, sh.chunk, sh.stopC
	for {
		if stopC != nil {
			select {
			case <-stopC:
				sh.stopped.Store(true)
				return
			default:
			}
		}
		lo := int(sh.next.Add(int64(chunk))) - chunk
		if lo >= n {
			return
		}
		for i, hi := lo, min(lo+chunk, n); i < hi; i++ {
			fn(w, i)
		}
	}
}

// Close releases the pool's worker goroutines. The pool must be idle;
// RunCancel must not be called afterwards (it would deadlock waiting on
// parked workers). Close is idempotent.
func (p *Pool) Close() { p.sh.close() }

func (sh *poolShared) close() {
	sh.closeOnce.Do(func() {
		for _, c := range sh.start {
			close(c)
		}
	})
}
