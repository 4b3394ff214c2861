package par

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 100} {
		n := 57
		hit := make([]int32, n)
		ForEach(n, workers, func(i int) {
			atomic.AddInt32(&hit[i], 1)
		})
		for i, h := range hit {
			if h != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, h)
			}
		}
	}
}

func TestForEachZeroItems(t *testing.T) {
	called := false
	ForEach(0, 4, func(int) { called = true })
	if called {
		t.Fatal("fn called for n=0")
	}
	ForEach(-3, 4, func(int) { called = true })
	if called {
		t.Fatal("fn called for negative n")
	}
}

func TestMapOrdered(t *testing.T) {
	got := Map(10, 4, func(i int) int { return i * i })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("Map[%d] = %d", i, v)
		}
	}
}

func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	a := Map(100, 1, func(i int) int { return i * 3 })
	b := Map(100, 8, func(i int) int { return i * 3 })
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("results differ at %d", i)
		}
	}
}

func TestMapPooledOrderedAndComplete(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 100} {
		got := MapPooled(57, workers, func() *int { return new(int) }, func(s *int, i int) int {
			*s++ // per-worker running count; result must not depend on it
			return i * i
		})
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: MapPooled[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestMapPooledStatePerWorker(t *testing.T) {
	const n, workers = 200, 4
	var created atomic.Int32
	type state struct{ items int32 }
	outs := MapPooled(n, workers, func() *state {
		created.Add(1)
		return &state{}
	}, func(s *state, i int) *state {
		atomic.AddInt32(&s.items, 1) // the state itself is worker-local
		return s
	})
	if c := created.Load(); c < 1 || c > workers {
		t.Fatalf("created %d states, want 1..%d", c, workers)
	}
	// Every item was processed through exactly one of the states.
	total := int32(0)
	seen := map[*state]bool{}
	for _, s := range outs {
		if !seen[s] {
			seen[s] = true
			total += s.items
		}
	}
	if total != n {
		t.Fatalf("states account for %d items, want %d", total, n)
	}
	if len(seen) > int(created.Load()) {
		t.Fatalf("%d distinct states observed, only %d created", len(seen), created.Load())
	}
}

func TestMapPooledZeroItems(t *testing.T) {
	calls := 0
	out := MapPooled(0, 4, func() int { calls++; return 0 }, func(int, int) int { calls++; return 0 })
	if len(out) != 0 || calls != 0 {
		t.Fatalf("n=0: len %d, %d calls", len(out), calls)
	}
}

func TestForEachParallelismIsBounded(t *testing.T) {
	var cur, peak atomic.Int32
	ForEach(64, 4, func(int) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		cur.Add(-1)
	})
	if peak.Load() > 4 {
		t.Fatalf("observed %d concurrent workers, limit 4", peak.Load())
	}
}

func TestForEachPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("workers=%d: recovered %v, want boom", workers, r)
				}
			}()
			ForEach(16, workers, func(i int) {
				if i == 7 {
					panic("boom")
				}
			})
			t.Fatalf("workers=%d: ForEach returned instead of panicking", workers)
		}()
	}
}

func TestMapPooledPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r != "pooled boom" {
			t.Fatalf("recovered %v, want pooled boom", r)
		}
	}()
	MapPooled(32, 4, func() int { return 0 }, func(_ int, i int) int {
		if i == 13 {
			panic("pooled boom")
		}
		return i
	})
	t.Fatal("MapPooled returned instead of panicking")
}

func TestForEachWorkersDefaultAndClamp(t *testing.T) {
	// workers <= 0 selects GOMAXPROCS(0); just check completion and
	// that the bound respects a tiny n (no goroutine without work).
	hit := make([]int32, 3)
	var cur, peak atomic.Int32
	ForEach(len(hit), -1, func(i int) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		atomic.AddInt32(&hit[i], 1)
		cur.Add(-1)
	})
	for i, h := range hit {
		if h != 1 {
			t.Fatalf("index %d hit %d times", i, h)
		}
	}
	if peak.Load() > int32(len(hit)) {
		t.Fatalf("observed %d concurrent workers for n=%d", peak.Load(), len(hit))
	}
}

func TestPoolCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 7} {
		p := NewPool(workers)
		if p.Workers() != workers {
			t.Fatalf("Workers() = %d, want %d", p.Workers(), workers)
		}
		for _, n := range []int{0, 1, 57, 1000} {
			hit := make([]int32, n)
			p.RunCancel(n, nil, func(w, i int) {
				if w < 0 || w >= workers {
					t.Errorf("worker id %d out of [0,%d)", w, workers)
				}
				atomic.AddInt32(&hit[i], 1)
			})
			for i, h := range hit {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d hit %d times", workers, n, i, h)
				}
			}
		}
		p.Close()
	}
}

func TestPoolReusableAfterPanic(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	func() {
		defer func() {
			if r := recover(); r != "pool boom" {
				t.Fatalf("recovered %v, want pool boom", r)
			}
		}()
		p.RunCancel(64, nil, func(w, i int) {
			if i == 31 {
				panic("pool boom")
			}
		})
		t.Fatal("RunCancel returned instead of panicking")
	}()
	// The pool must stay usable after a drained panic.
	var count atomic.Int32
	p.RunCancel(64, nil, func(w, i int) { count.Add(1) })
	if count.Load() != 64 {
		t.Fatalf("post-panic sweep covered %d indices, want 64", count.Load())
	}
}

func TestPoolDefaultWorkers(t *testing.T) {
	p := NewPool(0)
	defer p.Close()
	if p.Workers() < 1 {
		t.Fatalf("Workers() = %d", p.Workers())
	}
	var count atomic.Int32
	p.RunCancel(100, nil, func(w, i int) { count.Add(1) })
	if count.Load() != 100 {
		t.Fatalf("covered %d indices, want 100", count.Load())
	}
}

func TestPoolCloseIdempotent(t *testing.T) {
	p := NewPool(3)
	p.RunCancel(10, nil, func(w, i int) {})
	p.Close()
	p.Close()
}

func TestPoolRunCancelCompletesWithOpenChannel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := NewPool(workers)
		var count atomic.Int32
		if !p.RunCancel(100, make(chan struct{}), func(w, i int) { count.Add(1) }) {
			t.Fatalf("workers=%d: reported early stop with an open channel", workers)
		}
		if count.Load() != 100 {
			t.Fatalf("workers=%d: covered %d indices, want 100", workers, count.Load())
		}
		// A cancellable sweep must not poison later uncancellable ones.
		count.Store(0)
		p.RunCancel(64, nil, func(w, i int) { count.Add(1) })
		if count.Load() != 64 {
			t.Fatalf("workers=%d: post-cancel nil-channel sweep covered %d indices, want 64", workers, count.Load())
		}
		p.Close()
	}
}

func TestPoolRunCancelPreCancelled(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := NewPool(workers)
		done := make(chan struct{})
		close(done)
		var count atomic.Int32
		if p.RunCancel(1000, done, func(w, i int) { count.Add(1) }) {
			t.Fatalf("workers=%d: pre-cancelled sweep claims completion", workers)
		}
		// Workers check before claiming each chunk, so at most one
		// chunk per worker can slip through the initial race window;
		// with a channel closed before Run, none should.
		if count.Load() != 0 {
			t.Fatalf("workers=%d: pre-cancelled sweep ran %d items, want 0", workers, count.Load())
		}
		p.Close()
	}
}

func TestPoolRunCancelStopsEarly(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	done := make(chan struct{})
	var count atomic.Int32
	var closeOnce sync.Once
	completed := p.RunCancel(100000, done, func(w, i int) {
		if count.Add(1) == 100 {
			closeOnce.Do(func() { close(done) })
		}
	})
	if completed {
		t.Fatal("sweep claims completion despite mid-sweep cancel")
	}
	// In-flight chunks finish; only chunk claims stop. The chunk size
	// for this n is 64, so the tail is bounded by workers*chunk.
	if got := count.Load(); got < 100 || got > 100+4*64 {
		t.Fatalf("ran %d items, want within [100, %d]", got, 100+4*64)
	}
}
