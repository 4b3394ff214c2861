package core

// This file implements the breakpoint-compressed representation of
// monotone DP rows and the row algebra the solvers' merge kernels run
// on: point lookup, pointwise minimum, min-plus convolution, shifts and
// the place-aware fold step of the replica merges.
//
// The monotone-row contract. A DP row v(0..n-1) is monotone when
//
//  1. its infeasible cells form a prefix of the row, and
//  2. its feasible values are non-increasing left to right.
//
// Every row produced by the three dynamic programs satisfies the
// contract along its resource axis (new servers, mode-M servers,
// replicas): spending one more unit of the resource can always be done
// by equipping one more node, which never increases the escaping
// load. All three solvers rely on this theorem and store runs only.
// QoSSolver counts a flow above W as infeasible, which no ancestor
// could absorb anyway, and without which its rows would break the
// contract. In a power row the theorem holds up to the row's effective
// length, the non-pre nodes left after the other modes' new servers:
// below it a free non-pre node exists by pigeonhole, and a mode-M
// server there absorbs the flow through it, which is at most W_M (the
// flow reaches a server of capacity at most W_M or escapes as a
// reached value, at most W_M).
//
// Under the contract a width-n row with values in {0..W} carries at
// most W+2 distinct states (W+1 values plus the infeasible prefix), so
// it is represented losslessly by its breakpoints: runs with strictly
// increasing starts and strictly decreasing values, where run p covers
// the cells [start_p, start_{p+1}) and cells before the first start are
// infeasible. All row operations below preserve the invariant by
// construction, which is what makes folds over compressed rows exact
// without re-verification.

// bpRun is one breakpoint of a compressed monotone row: the row holds
// val from cell start up to the next run's start (or the row end).
type bpRun struct {
	start int32
	val   int64
}

// bpInfVal is the internal +inf of the row algebra. Strictly larger
// than any table value and small enough that sums of two values never
// overflow int64.
const bpInfVal = int64(1) << 62

// bpAt returns the row value at cell k, or bpInfVal when k lies in the
// infeasible prefix.
func bpAt(runs []bpRun, k int32) int64 {
	// Binary search for the last run with start <= k.
	lo, hi := 0, len(runs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if runs[mid].start <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return bpInfVal
	}
	return runs[lo-1].val
}

// envMin writes the pointwise minimum of two monotone rows into dst
// (which must not alias a or b) and returns it. Treating the cells
// before a row's first run as +inf makes the minimum of two monotone
// rows monotone again, so the result is in normal form.
func envMin(a, b, dst []bpRun) []bpRun {
	dst = dst[:0]
	i, j := 0, 0
	curA, curB := bpInfVal, bpInfVal
	last := bpInfVal
	for i < len(a) || j < len(b) {
		var s int32
		switch {
		case j >= len(b) || (i < len(a) && a[i].start <= b[j].start):
			s = a[i].start
		default:
			s = b[j].start
		}
		for i < len(a) && a[i].start == s {
			curA = a[i].val
			i++
		}
		for j < len(b) && b[j].start == s {
			curB = b[j].val
			j++
		}
		m := min(curA, curB)
		if m < last {
			dst = append(dst, bpRun{start: s, val: m})
			last = m
		}
	}
	return dst
}

// envMinInto folds src into the accumulated row acc, using spare as
// the envMin destination, and returns the new row plus the displaced
// buffer (so the two storages ping-pong without allocating).
func envMinInto(acc, src, spare []bpRun) (row, next []bpRun) {
	if len(acc) == 0 {
		return append(acc, src...), spare
	}
	return envMin(acc, src, spare[:0]), acc
}

// bpScratch holds the grow-only temporaries of the merge kernels, one
// per worker. Every buffer follows the arena contract: reused across
// merges, never shrunk, so steady-state solves stay allocation-free
// once grown to the high-water mark.
type bpScratch struct {
	acc, ch  []bpRun // row accumulator and shifted-row buffer
	frag     []bpRun // per-run candidate fragment
	res, alt []bpRun // fold ping-pong buffers
	tmp      []bpRun // envMin destination for row accumulation
	slab     []bpRun // the output rows of a power merge
	accRuns  []bpRun // a table staged before it is kept
}

// cover grows every buffer of sc to at least the capacity of o's
// counterpart. The contents are scratch, so a replaced buffer starts
// empty.
func (sc *bpScratch) cover(o *bpScratch) {
	for i, p := range sc.runBufs() {
		fitCap(p, *o.runBufs()[i])
	}
	// Buffers that trade places — the folds' res and alt, MinCost's
	// row and envMin spare — draw each other's needs in whichever order
	// a worker's nodes swap them, so each pair is sized as one.
	fitCap(&sc.res, sc.alt)
	fitCap(&sc.alt, sc.res)
	fitCap(&sc.acc, sc.tmp)
	fitCap(&sc.tmp, sc.acc)
}

// runBufs lists the flat run buffers of sc.
func (sc *bpScratch) runBufs() [8]*[]bpRun {
	return [8]*[]bpRun{&sc.acc, &sc.ch, &sc.frag, &sc.res, &sc.alt, &sc.tmp, &sc.slab, &sc.accRuns}
}

// fitCap replaces *dst with an empty buffer of src's capacity when its
// own is smaller.
func fitCap[T any](dst *[]T, src []T) {
	if cap(*dst) < cap(src) {
		*dst = make([]T, 0, cap(src))
	}
}

// bpConv computes the min-plus convolution of two monotone rows:
// out[k] = min{a[i]+b[j] : i+j == k, a[i]+b[j] <= maxSum} for
// k <= maxStart. maxStart must not exceed the natural reach
// accN+chN (the sum of the dense rows' last indices): a run claims its
// value to the end of the output, which past the reach no exact dense
// split could produce. The result lands in one of sc's fold buffers
// and is valid until the next bpConv/bpPlaceMerge call on the same
// scratch.
//
// The candidate breakpoints (a_i.start+b_j.start, a_i.val+b_j.val)
// form, for each i, a fragment with increasing starts and decreasing
// values; the convolution is the lower envelope of the fragments. The
// envelope equals the dense convolution because consecutive runs cover
// contiguous index windows: the candidate claimed at any cell k in
// range is achievable by some exact split i+j = k with the same or
// smaller value. Cost is O(|a|·(|b|+R)) with R the result size — both
// bounded by the value range, not the row width.
func bpConv(a, b []bpRun, maxSum int64, maxStart int32, sc *bpScratch) []bpRun {
	res, alt := sc.res[:0], sc.alt[:0]
	for i := range a {
		frag := sc.frag[:0]
		for j := range b {
			s := a[i].start + b[j].start
			if s > maxStart {
				break // starts only grow with j
			}
			v := a[i].val + b[j].val
			if v > maxSum {
				continue // values only shrink with j
			}
			frag = append(frag, bpRun{start: s, val: v})
		}
		sc.frag = frag[:0]
		if len(frag) == 0 {
			continue
		}
		res, alt = envMin(res, frag, alt[:0]), res
	}
	sc.res, sc.alt = alt[:0], res // keep capacities live across calls
	return res
}

// bpPlaceMerge is the fold step of the replica merges on compressed
// rows: the min-plus convolution of acc row a with child row b under
// the load cap maxSum, plus the option of equipping the child itself,
// which absorbs its load entirely — out[k] may also take a[n1] for any
// n1 with a feasible child cell at k-n1-1. b must be non-empty.
//
// Equipping dominates every second-and-later child run (same acc
// value, one extra unit of the resource axis), so each acc run
// contributes at most two breakpoints: the first child run's pair and
// the equip point one cell later. That makes the whole step linear in
// the run counts — independent of the row widths a dense merge pays
// for. maxStart must not exceed the natural reach accN+chN+1.
func bpPlaceMerge(a, b []bpRun, maxSum int64, maxStart int32, sc *bpScratch) []bpRun {
	res, alt := sc.res[:0], sc.alt[:0]
	for i := range a {
		frag := sc.frag[:0]
		// Only the pair with the child's first run can matter: a pair
		// using any later child run has value >= a[i].val (child
		// values are non-negative) and start past the equip point, so
		// the equip point dominates it.
		if s := a[i].start + b[0].start; s <= maxStart && a[i].val+b[0].val <= maxSum {
			frag = append(frag, bpRun{start: s, val: a[i].val + b[0].val})
		}
		// The equip point: value a[i].val from one cell past the
		// child's first feasible cell. Equipping is never cap-checked —
		// the child's load is absorbed, matching the dense merge.
		if s := a[i].start + b[0].start + 1; s <= maxStart {
			if n := len(frag); n == 0 || a[i].val < frag[n-1].val {
				frag = append(frag, bpRun{start: s, val: a[i].val})
			}
		}
		sc.frag = frag[:0]
		if len(frag) == 0 {
			continue
		}
		res, alt = envMin(res, frag, alt[:0]), res
	}
	sc.res, sc.alt = alt[:0], res
	return res
}

// bpShift writes a copy of a with every start moved right by delta
// (dropping runs past maxStart) into dst and returns it. This is the
// cross-row staircase of the power merge: equipping the child at a
// lower mode contributes the acc row shifted to the first child cell
// that mode can carry.
func bpShift(a []bpRun, delta, maxStart int32, dst []bpRun) []bpRun {
	dst = dst[:0]
	for i := range a {
		s := a[i].start + delta
		if s > maxStart {
			break
		}
		dst = append(dst, bpRun{start: s, val: a[i].val})
	}
	return dst
}
