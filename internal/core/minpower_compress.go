package core

import "slices"

// This file holds the run kernel of the power dynamic program — the
// only power merge — and the lazy provenance reconstruction it relies
// on.
//
// Layout. A table's dense shape (PowerDP.nodeDims) orders the fields
// n_1..n_M, then the M² reuse fields e_{i→m}. The run axis is n_M;
// every other field is a row digit, so a row is the strided line of
// cells that differ only in n_M, and rows are numbered in flat order
// with the n_M field dropped (rowStrides). Along n_M every row obeys
// the monotone contract of breakrow.go, but only up to its effective
// length dims[n_M] − Σ(n_1..n_{M-1} digits): the new servers of all
// modes together use the subtree's non-pre nodes, so past it the row
// is unreached by pigeonhole. Reuse digits use pre-existing nodes only
// and leave the effective length alone. A row's last run claims its
// value up to the effective length; the unreached tail is implicit.
//
// A merge folds every (acc row, child row) pair into the output row
// at the sum of their digits:
//
//   - a new child adds bpPlaceMerge — the capped min-plus convolution
//     plus equipping the child at mode M one cell right — and, for
//     each mode m < M, the acc row shifted to the first child cell
//     mode m can carry (bpShift), in the sum row bumped in n_m;
//   - a pre-existing child with initial mode i adds bpConv for the
//     no-place option and, for each mode m, the acc row shifted to the
//     first child cell mode m can carry, in the sum row bumped in
//     e_{i→m}.
//
// Output rows accumulate the pair contributions with envMin. The result
// is cell-identical to the dense merge, which minpower_oracle_test.go
// keeps as a test-only reference. Provenance is not materialised:
// lazyProv re-derives a cell's decision from the step's input, the
// child's final table and the step's output, in the dense scan's
// (acc cell, child cell) order.

// rowStrides fills w with the row-index weight of every field of a
// table of shape sh — moving field f by one moves the row index by
// w[f] — and returns it. The run axis nM weighs 0.
func rowStrides(sh shape, nM int, w []int32) []int32 {
	for f, s := range sh.strides {
		switch {
		case f < nM:
			w[f] = s / sh.dims[nM]
		case f == nM:
			w[f] = 0
		default:
			w[f] = s
		}
	}
	return w
}

// rowOdometer readies o to walk the rows of a table of shape sh in
// row order (field nM held at 0), accumulating the weights w.
func rowOdometer(o *odometer, sh shape, nM int, w []int32, ar *arena[int32]) {
	dims := ar.alloc(len(sh.dims))
	copy(dims, sh.dims)
	dims[nM] = 1
	o.init(dims, w, ar.alloc(len(dims)))
}

// newDigits returns the sum of the n_1..n_{M-1} digits of a row.
func newDigits(coords []int32, nM int) int32 {
	s := int32(0)
	for _, c := range coords[:nM] {
		s += c
	}
	return s
}

// listRows lists the non-empty rows of tab (shape sh) in ar, three
// entries each: the row index, the row's index in the output row space
// of weights ow, and its n_1..n_{M-1} digit sum. The list is carved
// for every row, so the arena need is a function of shapes alone.
func listRows(tab bpTable, sh shape, nM int, ow []int32, ar *arena[int32]) []int32 {
	var o odometer
	rowOdometer(&o, sh, nM, ow, ar)
	rows := int32(sh.size) / sh.dims[nM]
	list := ar.alloc(3 * int(rows))[:0]
	for r := int32(0); r < rows; r++ {
		if len(tab.row(r)) > 0 {
			list = append(list, r, o.out, newDigits(o.coords, nM))
		}
		o.next()
	}
	return list
}

// merge runs fold step st of node j: it folds the final table of child
// ch into the accumulated table on runs, keeps the output in the step
// and updates the accumulated subtree counts in place.
func (d *PowerDP) merge(j, st, ch int, accNew *int32, accPre []int32, ar *arena[int32], sc *bpScratch, ms *mergeStats) error {
	outNew, outPre, outSh, err := d.childDims(ch, *accNew, accPre, ar)
	if err != nil {
		return err
	}
	M, nM := d.M, d.M-1
	acc, accSh := d.stepIn(j, st)
	c, chSh := d.final(ch)
	outLen := outSh.dims[nM]
	outRows := int32(outSh.size) / outLen
	ow := rowStrides(outSh, nM, ar.alloc(d.nf))
	aList := listRows(acc, accSh, nM, ow, ar)
	cList := listRows(c, chSh, nM, ow, ar)

	// Per non-empty child row and mode m: the first cell mode m can
	// carry — a suffix of the row's cells, since values only fall
	// rightward — or -1 when even the row's smallest value exceeds the
	// capacity.
	caps := d.prob.Power.Caps
	starts := ar.alloc(chSh.size / int(chSh.dims[nM]) * M)
	for i := 0; i < len(cList); i += 3 {
		runs := c.row(cList[i])
		for m := 1; m <= M; m++ {
			s := int32(-1)
			for _, run := range runs {
				if run.val <= int64(caps[m-1]) {
					s = run.start
					break
				}
			}
			starts[i/3*M+m-1] = s
		}
	}
	// The output row bump of equipping the child at mode m.
	chMode0 := int(d.prob.Existing.Mode(ch))
	bump := ar.alloc(M + 1)
	for m := 1; m <= M; m++ {
		if chMode0 == 0 {
			bump[m] = ow[d.fieldNew(m)]
		} else {
			bump[m] = ow[d.fieldReuse(chMode0, m)]
		}
	}

	// Output row r accumulates in the span (start, length, capacity)
	// of sc.slab at span[3r:], empty until the row's first
	// contribution. A row outgrowing its span moves to the slab's end
	// with twice the room, so rows cost one slab, not a buffer each.
	span := ar.alloc(3 * int(outRows))
	for i := range span {
		span[i] = 0
	}
	sc.slab = sc.slab[:0]
	add := func(r int32, src []bpRun) {
		if len(src) == 0 {
			return
		}
		sp := span[3*r : 3*r+3]
		if sp[1] > 0 {
			sc.tmp = envMin(sc.slab[sp[0]:sp[0]+sp[1]], src, sc.tmp)
			src = sc.tmp
		}
		if n := int32(len(src)); n > sp[2] {
			sp[0], sp[2] = int32(len(sc.slab)), 2*n
			sc.slab = slices.Grow(sc.slab, int(2*n))[:sp[0]+2*n]
		}
		sp[1] = int32(copy(sc.slab[sp[0]:], src))
	}
	shift := func(r int32, a []bpRun, delta, lim int32) {
		sh := bpShift(a, delta, lim, sc.ch)
		add(r, sh)
		sc.ch = sh[:0]
	}
	wm := int64(d.wm)
	for ai := 0; ai < len(aList); ai += 3 {
		a := acc.row(aList[ai])
		for ci := 0; ci < len(cList); ci += 3 {
			b := c.row(cList[ci])
			ms.cells += len(a) + len(b)
			ms.rows += 2
			row0 := aList[ai+1] + cList[ci+1]
			// The last cell of row0 within its effective length.
			lim := outLen - 1 - aList[ai+2] - cList[ci+2]
			sm := starts[ci/3*M:][:M]
			if chMode0 == 0 {
				add(row0, bpPlaceMerge(a, b, wm, lim, sc))
				// A mode-m server (m < M) is one more n_m digit, which
				// shortens the bumped row by one cell.
				for m := 1; m < M && lim > 0; m++ {
					if sm[m-1] >= 0 {
						shift(row0+bump[m], a, sm[m-1], lim-1)
					}
				}
				continue
			}
			add(row0, bpConv(a, b, wm, lim, sc))
			for m := 1; m <= M; m++ {
				if sm[m-1] >= 0 {
					shift(row0+bump[m], a, sm[m-1], lim)
				}
			}
		}
	}

	// No merge input aliases the step's own buffer, so the table is
	// written there directly, grown once to its final size.
	n := int(outRows) + 1
	for r := int32(0); r < outRows; r++ {
		n += int(span[3*r+1])
	}
	step := &d.steps[j][st]
	runs := beginTable(grownSpare(step.tab.runs, n), outRows-1)
	for r := int32(0); r < outRows; r++ {
		runs = append(runs, sc.slab[span[3*r]:span[3*r]+span[3*r+1]]...)
		endRow(runs, outRows-1, r)
	}
	step.tab = bpTable{dimE: outRows - 1, dimN: outLen - 1, runs: runs}
	step.sh.assign(outSh)
	*accNew = outNew
	copy(accPre, outPre)
	return nil
}

// provLine is one row of a table as lazyProv reads it: its runs, the
// flat index of its cell 0, the flat stride along n_M and its
// effective length.
type provLine struct {
	runs            []bpRun
	base, step, eff int32
}

// pick returns the packed provenance of the first acc cell i in
// [aS, aE) of line a whose partner cell k-delta-i of child line c lies
// in [cl, cr], or noProv when there is none.
func pick(a, c provLine, aS, aE, k, delta, cl, cr int32, mode uint8) uint64 {
	i := max(aS, k-delta-cr)
	if i >= aE || i > k-delta-cl {
		return noProv
	}
	return packProv(int(a.base+i*a.step), int(c.base+(k-delta-i)*c.step), mode)
}

// provScan is the state of one lazyProv call: the step's input and
// child tables, their row strides, the target cell (n_M index k, value
// vstar) and digit scratch.
type provScan struct {
	acc, ch      bpTable
	accSh, chSh  shape
	nM           int
	aw, cw       []int32 // row strides of the acc and child tables
	t, lo, hi, a []int32 // an option's acc+child digits, the acc box, the acc digits
	k            int32
	vstar        int64
	caps         []int
}

// lazyProv re-derives the provenance of one output cell of fold step
// st of node j: the first (acc cell, child cell, mode) triple in the
// dense merge's scan order — exactly the packProv order — that
// achieves the cell's value. Returns noProv when the cell is
// unreached. Each option — no place, or equipping the child at one
// mode — pairs acc rows with the child rows at a fixed digit offset,
// so the minimal triple is the least of the options' minima.
func (s *PowerSolver) lazyProv(j, st int, cell int32) uint64 {
	out := &s.steps[j][st]
	ch := s.prob.Tree.Children(j)[st]
	M := s.prob.Power.M()
	p := provScan{nM: M - 1, caps: s.prob.Power.Caps}
	p.acc, p.accSh = s.stepIn(j, st)
	p.ch, p.chSh = s.final(ch)
	nf, nM := len(out.sh.dims), p.nM
	var buf [96]int32 // the digit vectors of up to three modes
	dig := buf[:]
	if 8*nf > len(dig) {
		dig = make([]int32, 8*nf)
	}
	oDig := dig[:nf]
	p.t, p.lo, p.hi, p.a = dig[nf:2*nf], dig[2*nf:3*nf], dig[3*nf:4*nf], dig[4*nf:5*nf]
	ow := rowStrides(out.sh, nM, dig[5*nf:6*nf])
	p.aw = rowStrides(p.accSh, nM, dig[6*nf:7*nf])
	p.cw = rowStrides(p.chSh, nM, dig[7*nf:8*nf])

	rem, outRow := cell, int32(0)
	for f := range oDig {
		oDig[f] = rem / out.sh.strides[f]
		rem %= out.sh.strides[f]
		outRow += oDig[f] * ow[f]
	}
	p.k = oDig[nM]
	if p.vstar = bpAt(out.tab.row(outRow), p.k); p.vstar >= bpInfVal {
		return noProv
	}
	mode0 := int(s.prob.Existing.Mode(ch))
	best := noProv
	for m := 0; m <= M; m++ {
		// Equipping the child bumps its mode's field; a new child at
		// mode M moves n_M one cell right instead.
		copy(p.t, oDig)
		delta := int32(0)
		switch {
		case m == 0:
		case mode0 != 0:
			p.t[M+(mode0-1)*M+m-1]-- // e_{mode0→m}
		case m < M:
			p.t[m-1]--
		default:
			delta = 1
		}
		best = min(best, p.option(uint8(m), delta))
	}
	return best
}

// option returns the minimal provenance candidate of one option: mode
// 0 pairs an acc cell of value v with a child cell of value vstar-v at
// k-i; mode m pairs an acc cell of value vstar with a child cell mode m
// can carry at k-delta-i. The child row is t minus the acc row. Acc
// rows are walked in row order; cells of rows that differ only in
// reuse digits interleave in flat order, so the minimum is taken over
// every row of one n_1..n_{M-1} slab, and the first slab holding a
// candidate wins, since its cells all precede the next slab's.
func (p *provScan) option(mode uint8, delta int32) uint64 {
	nM := p.nM
	for f := range p.t {
		p.lo[f], p.hi[f] = max(0, p.t[f]-p.chSh.dims[f]+1), min(p.t[f], p.accSh.dims[f]-1)
		if f == nM {
			p.lo[f], p.hi[f] = 0, 0
		}
		if p.lo[f] > p.hi[f] {
			return noProv
		}
	}
	copy(p.a, p.lo)
	best := noProv
	for {
		var aRow, cRow int32
		a := provLine{step: p.accSh.strides[nM], eff: p.accSh.dims[nM]}
		c := provLine{step: p.chSh.strides[nM], eff: p.chSh.dims[nM]}
		for f, ad := range p.a {
			cd := p.t[f] - ad
			if f == nM {
				continue
			}
			aRow += ad * p.aw[f]
			cRow += cd * p.cw[f]
			a.base += ad * p.accSh.strides[f]
			c.base += cd * p.chSh.strides[f]
			if f < nM {
				a.eff -= ad
				c.eff -= cd
			}
		}
		if a.runs, c.runs = p.acc.row(aRow), p.ch.row(cRow); len(a.runs) > 0 && len(c.runs) > 0 {
			best = min(best, p.pair(a, c, mode, delta))
		}
		f := len(p.a) - 1
		for ; f >= 0; f-- {
			if p.a[f] < p.hi[f] {
				p.a[f]++
				break
			}
			p.a[f] = p.lo[f]
		}
		if f < 0 || f < nM && best != noProv {
			return best
		}
	}
}

// pair returns the option's minimal candidate between acc line a and
// child line c, or noProv. The first acc run holding a candidate holds
// the minimal one: later runs only produce larger acc cells.
func (p *provScan) pair(a, c provLine, mode uint8, delta int32) uint64 {
	for q, ar := range a.runs {
		// The child cells [cl, cr] an acc cell of value v pairs with:
		// with nothing placed, the run of value vstar-v; with the child
		// equipped at mode m, and only for v == vstar, the cells mode m
		// can carry, a suffix of the row.
		cl, cr := int32(-1), c.eff-1
		switch {
		case mode == 0 && ar.val <= p.vstar:
			for r, run := range c.runs {
				if run.val > p.vstar-ar.val {
					continue
				}
				if run.val == p.vstar-ar.val {
					cl = run.start
					if r+1 < len(c.runs) {
						cr = c.runs[r+1].start - 1
					}
				}
				break
			}
		case mode != 0 && ar.val == p.vstar:
			for _, run := range c.runs {
				if run.val <= int64(p.caps[mode-1]) {
					cl = run.start
					break
				}
			}
		}
		if cl < 0 {
			continue
		}
		aE := a.eff
		if q+1 < len(a.runs) {
			aE = a.runs[q+1].start
		}
		if b := pick(a, c, ar.start, aE, p.k, delta, cl, cr, mode); b != noProv {
			return b
		}
	}
	return noProv
}
