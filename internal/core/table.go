package core

import "fmt"

// maxTableCells bounds the size of any single DP table. The power DP is
// exponential in the number of modes; instances whose tables exceed this
// bound return an error instead of exhausting memory.
const maxTableCells = 1 << 27

// shape describes a dense multi-dimensional DP table in row-major order
// (last field fastest). Dims are exclusive bounds: a field with bound b
// takes values 0..b-1.
type shape struct {
	dims    []int32
	strides []int32
	size    int
}

// assign copies o into s's own dims and strides buffers (reusing their
// capacity), detaching s from o's storage.
func (s *shape) assign(o shape) {
	s.dims = append(s.dims[:0], o.dims...)
	s.strides = append(s.strides[:0], o.strides...)
	s.size = o.size
}

func newShape(dims []int32) (shape, error) {
	return fillShape(dims, make([]int32, len(dims)))
}

// fillShape is newShape with caller-provided stride storage, so arena
// allocators can build shapes without a heap allocation.
func fillShape(dims, strides []int32) (shape, error) {
	s := shape{dims: dims, strides: strides}
	size := int64(1)
	for i := len(dims) - 1; i >= 0; i-- {
		if dims[i] < 1 {
			return shape{}, fmt.Errorf("core: non-positive table dimension %d", dims[i])
		}
		s.strides[i] = int32(size)
		size *= int64(dims[i])
		if size > maxTableCells {
			return shape{}, fmt.Errorf("core: DP table would need %d+ cells (limit %d); reduce tree size, modes or pre-existing servers", size, maxTableCells)
		}
	}
	s.size = int(size)
	return s, nil
}

// odometer iterates the cells of a table in flat (row-major) order while
// maintaining the cell's coordinates and the corresponding partial index
// in another table's stride space. This lets merge loops add two cells'
// output positions without per-cell multiplication.
type odometer struct {
	dims   []int32
	ostr   []int32 // stride of each field in the output space
	coords []int32
	out    int32 // sum over fields of coords[f]*ostr[f]
}

func newOdometer(dims, outStrides []int32) *odometer {
	return &odometer{dims: dims, ostr: outStrides, coords: make([]int32, len(dims))}
}

// init readies a caller-owned odometer with caller-provided coordinate
// storage (zeroed here), avoiding the heap allocations of newOdometer in
// arena-backed merge loops.
func (o *odometer) init(dims, outStrides, coords []int32) {
	o.dims, o.ostr, o.coords = dims, outStrides, coords
	o.reset()
}

// next advances to the following cell, returning false after the last
// cell wraps around to all-zero coordinates.
func (o *odometer) next() bool {
	for f := len(o.dims) - 1; f >= 0; f-- {
		o.coords[f]++
		o.out += o.ostr[f]
		if o.coords[f] < o.dims[f] {
			return true
		}
		o.coords[f] = 0
		o.out -= o.dims[f] * o.ostr[f]
	}
	return false
}

// reset returns the odometer to the all-zero cell.
func (o *odometer) reset() {
	for f := range o.coords {
		o.coords[f] = 0
	}
	o.out = 0
}
