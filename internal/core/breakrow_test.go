package core

import (
	"math/rand"
	"slices"
	"testing"
)

// encodeRuns32 compresses a dense int32 row whose infeasible sentinel
// is inval, the tests' check of the monotone contract. Returns
// ok=false — with dst truncated arbitrarily — when the row violates it
// (an interior infeasible cell or an increasing step).
func encodeRuns32(row []int32, inval int32, dst []bpRun) ([]bpRun, bool) {
	dst = dst[:0]
	i := 0
	for i < len(row) && row[i] == inval {
		i++
	}
	last := bpInfVal
	for ; i < len(row); i++ {
		if row[i] == inval {
			return dst, false
		}
		v := int64(row[i])
		if v > last {
			return dst, false
		}
		if v < last {
			dst = append(dst, bpRun{start: int32(i), val: v})
			last = v
		}
	}
	return dst, true
}

// decodeRuns32 expands runs into the dense row, filling cells before
// the first run with inval. Exact inverse of encodeRuns32.
func decodeRuns32(runs []bpRun, row []int32, inval int32) {
	end := len(row)
	for p := len(runs) - 1; p >= 0; p-- {
		v := int32(runs[p].val)
		for i := int(runs[p].start); i < end; i++ {
			row[i] = v
		}
		end = int(runs[p].start)
	}
	for i := 0; i < end; i++ {
		row[i] = inval
	}
}

// randMonotoneRow builds a random row satisfying the monotone contract:
// an infeasible prefix of random length (possibly zero, possibly the
// whole row) followed by non-increasing values in {0..maxV}.
func randMonotoneRow(rng *rand.Rand, width, maxV int, inval int32) []int32 {
	row := make([]int32, width)
	pre := 0
	if width > 0 && rng.Intn(3) == 0 {
		pre = rng.Intn(width + 1)
	}
	for i := 0; i < pre; i++ {
		row[i] = inval
	}
	v := maxV - rng.Intn(maxV/2+1)
	for i := pre; i < width; i++ {
		if rng.Intn(3) == 0 && v > 0 {
			v -= 1 + rng.Intn(min(v, 3))
		}
		row[i] = int32(v)
	}
	return row
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		width := 1 + rng.Intn(200)
		maxV := 1 + rng.Intn(30)
		inval := int32(-1)
		row := randMonotoneRow(rng, width, maxV, inval)
		runs, ok := encodeRuns32(row, inval, nil)
		if !ok {
			t.Fatalf("trial %d: encode rejected a monotone row %v", trial, row)
		}
		if len(runs) > maxV+2 {
			t.Fatalf("trial %d: %d runs for value range %d", trial, len(runs), maxV)
		}
		got := make([]int32, width)
		decodeRuns32(runs, got, inval)
		if !slices.Equal(row, got) {
			t.Fatalf("trial %d: round-trip mismatch\nrow  %v\ngot  %v\nruns %v", trial, row, got, runs)
		}
		// bpAt must agree with the dense row cell by cell.
		for k := 0; k < width; k++ {
			want := bpInfVal
			if row[k] != inval {
				want = int64(row[k])
			}
			if got := bpAt(runs, int32(k)); got != want {
				t.Fatalf("trial %d: bpAt(%d) = %d, want %d", trial, k, got, want)
			}
		}
	}
}

func TestEncodeRejectsNonMonotone(t *testing.T) {
	cases := [][]int32{
		{3, 2, 4},        // increasing step
		{-1, 5, -1, 3},   // interior infeasible cell
		{0, 0, 1},        // increase from zero
		{-1, -1, 2, -1},  // trailing infeasible cell
		{5, -1, 5, 4, 3}, // infeasible after feasible
	}
	for _, row := range cases {
		if _, ok := encodeRuns32(row, -1, nil); ok {
			t.Errorf("encode accepted non-monotone row %v", row)
		}
	}
}

// denseAt reads a dense row treating inval as +inf.
func denseAt(row []int32, k int, inval int32) int64 {
	if k < 0 || k >= len(row) || row[k] == inval {
		return bpInfVal
	}
	return int64(row[k])
}

func TestEnvMinMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 300; trial++ {
		width := 1 + rng.Intn(150)
		a := randMonotoneRow(rng, width, 1+rng.Intn(20), -1)
		b := randMonotoneRow(rng, width, 1+rng.Intn(20), -1)
		ra, _ := encodeRuns32(a, -1, nil)
		rb, _ := encodeRuns32(b, -1, nil)
		got := envMin(ra, rb, nil)
		for k := 0; k < width; k++ {
			want := min(denseAt(a, k, -1), denseAt(b, k, -1))
			if g := bpAt(got, int32(k)); g != want {
				t.Fatalf("trial %d: envMin at %d = %d, want %d", trial, k, g, want)
			}
		}
	}
}

// denseConv is the dense reference for bpConv: exact-split min-plus
// convolution under the load cap, evaluated at cells 0..outN.
func denseConv(a, b []int32, maxSum int64, outN int, inval int32) []int64 {
	out := make([]int64, outN+1)
	for k := range out {
		best := bpInfVal
		for i := 0; i <= k; i++ {
			va, vb := denseAt(a, i, inval), denseAt(b, k-i, inval)
			if va == bpInfVal || vb == bpInfVal {
				continue
			}
			if v := va + vb; v <= maxSum && v < best {
				best = v
			}
		}
		out[k] = best
	}
	return out
}

func TestConvMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var sc bpScratch
	for trial := 0; trial < 400; trial++ {
		wA := 1 + rng.Intn(60)
		wB := 1 + rng.Intn(60)
		maxV := 1 + rng.Intn(25)
		a := randMonotoneRow(rng, wA, maxV, -1)
		b := randMonotoneRow(rng, wB, maxV, -1)
		ra, okA := encodeRuns32(a, -1, nil)
		rb, okB := encodeRuns32(b, -1, nil)
		if !okA || !okB {
			t.Fatal("fuzzer produced a non-monotone row")
		}
		maxSum := int64(rng.Intn(2*maxV + 2))
		// Exercise truncation: outN anywhere up to the
		// natural reach (wA-1)+(wB-1), never past it.
		outN := rng.Intn(wA + wB - 1)
		got := bpConv(ra, rb, maxSum, int32(outN), &sc)
		want := denseConv(a, b, maxSum, outN, -1)
		for k := 0; k <= outN; k++ {
			if g := bpAt(got, int32(k)); g != want[k] {
				t.Fatalf("trial %d: conv at %d = %d, want %d (maxSum=%d outN=%d)\na=%v\nb=%v",
					trial, k, g, want[k], maxSum, outN, a, b)
			}
		}
	}
}

// densePlaceMerge is the dense reference for bpPlaceMerge, mirroring
// the solvers' merge loops: no-place pairs are cap-checked, equipping
// the child absorbs its load and keeps the acc value with one extra
// unit of the resource axis.
func densePlaceMerge(a, b []int32, maxSum int64, outN int, inval int32) []int64 {
	out := make([]int64, outN+1)
	for k := range out {
		out[k] = bpInfVal
	}
	for n1 := 0; n1 < len(a); n1++ {
		va := denseAt(a, n1, inval)
		if va == bpInfVal {
			continue
		}
		for nc := 0; nc < len(b); nc++ {
			vb := denseAt(b, nc, inval)
			if vb == bpInfVal {
				continue
			}
			if v := va + vb; v <= maxSum && n1+nc <= outN && v < out[n1+nc] {
				out[n1+nc] = v
			}
			if k := n1 + nc + 1; k <= outN && va < out[k] {
				out[k] = va
			}
		}
	}
	return out
}

func TestPlaceMergeMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	var sc bpScratch
	for trial := 0; trial < 400; trial++ {
		wA := 1 + rng.Intn(60)
		wB := 1 + rng.Intn(60)
		maxV := 1 + rng.Intn(25)
		a := randMonotoneRow(rng, wA, maxV, -1)
		b := randMonotoneRow(rng, wB, maxV, -1)
		// The merge kernels only compress rows with a feasible child
		// cell; retry until b has one.
		for denseAt(b, wB-1, -1) == bpInfVal {
			b = randMonotoneRow(rng, wB, maxV, -1)
		}
		ra, _ := encodeRuns32(a, -1, nil)
		rb, _ := encodeRuns32(b, -1, nil)
		maxSum := int64(rng.Intn(2*maxV + 2))
		outN := rng.Intn(wA + wB) // natural reach (wA-1)+(wB-1)+1
		got := bpPlaceMerge(ra, rb, maxSum, int32(outN), &sc)
		want := densePlaceMerge(a, b, maxSum, outN, -1)
		for k := 0; k <= outN; k++ {
			if g := bpAt(got, int32(k)); g != want[k] {
				t.Fatalf("trial %d: placeMerge at %d = %d, want %d (maxSum=%d outN=%d)\na=%v\nb=%v",
					trial, k, g, want[k], maxSum, outN, a, b)
			}
		}
	}
}

func TestShift(t *testing.T) {
	runs := []bpRun{{0, 9}, {3, 4}, {7, 1}}
	got := bpShift(runs, 2, 8, nil)
	want := []bpRun{{2, 9}, {5, 4}}
	if !slices.Equal(got, want) {
		t.Fatalf("bpShift = %v, want %v", got, want)
	}
	if g := bpShift(runs, 2, 100, nil); !slices.Equal(g, []bpRun{{2, 9}, {5, 4}, {9, 1}}) {
		t.Fatalf("bpShift unclamped = %v", g)
	}
}
