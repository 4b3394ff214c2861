package core

// arena is the flat scratch allocator behind PowerDP's merges: table
// shapes, row lists and digit vectors (MinCostSolver and QoSSolver need
// none). The driver owns one arena per worker and resets it per node,
// whose merge intermediates are carved out of one backing buffer
// (everything that must outlive the node — its step tables and shapes
// — lives in the retained per-node buffers instead).
// The reset fits the buffer to the high-water mark of the solves
// before it, so the buffer only ever grows: a one-shot solve pays
// nothing for fitting, and from the third solve of a given instance
// shape on (the second still grows the buffer once) every solve runs
// without a single heap allocation.
//
// Slices handed out by alloc stay valid for the whole solve even after
// the buffer is replaced by a later reset's growth (they keep
// referencing the old block); they are invalidated by the next reset,
// which is why solver results that must outlive a solve (placements,
// fronts) are copied out of arena storage.
type arena[T any] struct {
	buf []T
	off int
	// need is the running total requested since the last reset; the
	// next reset grows buf to it.
	need int
}

// reset recycles the buffer for a new solve, first growing it to the
// previous solve's high-water mark.
func (a *arena[T]) reset() {
	a.reserve(a.need)
	a.off = 0
	a.need = 0
}

// reserve grows the backing buffer to at least n elements.
func (a *arena[T]) reserve(n int) {
	if n > len(a.buf) {
		a.buf = make([]T, n)
	}
}

// alloc returns a scratch slice of length n with unspecified contents:
// callers must initialise every cell they later read. When the backing
// buffer is exhausted the slice is heap-allocated instead and the next
// reset grows the buffer accordingly.
func (a *arena[T]) alloc(n int) []T {
	a.need += n
	if a.off+n <= len(a.buf) {
		s := a.buf[a.off : a.off+n : a.off+n]
		a.off += n
		return s
	}
	return make([]T, n)
}
