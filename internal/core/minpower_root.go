package core

import (
	"cmp"
	"sort"

	"replicatree/internal/tree"
)

// This file holds the root end of the power dynamic program: the
// incremental root merge and the root scan, which prices the root
// table on the starts of its runs.
//
// The root is special twice over. First, its merges fold the largest
// tables of the whole tree, so the driver runs it alone on worker 0
// with a cancellation poll between fold steps. Like every node it
// restarts its fold at the first child whose subtree (or pre-existing
// mode) changed and replays only the suffix from the retained step
// outputs.
//
// Second, the root table must be priced — Equations (3) and (4) on the
// global count vector — on every solve, because the cost model
// invalidates no subtree table. Both equations are affine in the count
// vector: cost = baseC + Σ_f cw[f]·v_f and power = Σ_f pw[f]·v_f, with
// per-field weights cw/pw (a server always costs 1 plus its
// create/change price, minus the deletion it avoids when reused; a
// server at mode m always burns NodePower(m)). Each sum is folded left
// to right in field order, skipping zero coordinates.
//
// Only run starts can reach the front. Within a run of a root row the
// traversing load is constant, so every cell of the run has the same
// root-placement options, and the cell k steps past the run start has
// k more new mode-M servers: it costs k·cw[n_M] = k·(1+Create_M) ≥ k
// more and burns k·NodePower(M) more power. cost.Modal.Validate rules
// out negative prices, and power.Model.Validate requires Caps[0] > 0
// and Alpha > 0, so NodePower(M) > 0. Floating-point rounding is
// monotone, so no later cell prices below its run start in either
// coordinate, and a tie in both goes to the run start, whose rootCell
// is smaller (pushFront's tie rule). The scan therefore walks the
// root's rows and prices the start of each run only, streaming every
// candidate into one exact Pareto front; SolveStats.RootCellsRepriced
// counts the run starts priced.

// runRoot recomputes the root's final table, restarting the merge fold
// at the first fold step whose inputs changed and keeping every earlier
// partial merge from the previous solve (see PowerDP.fold), so a
// change under the q-th root child re-merges only fold steps q and on.
func (d *PowerDP) runRoot() error {
	r := d.t.Root()
	start, err := d.fold(r, 0, true)
	if start < 0 {
		d.rootRetained = len(d.t.Children(r)) // every retained root merge is still exact
		return nil
	}
	d.rootRetained = start
	d.recomputed++
	return err
}

// fillWeights computes the per-field affine pricing weights of
// Equations (3) and (4) and the count-independent deletion term.
func (d *PowerDP) fillWeights() {
	cm, pm := d.prob.Cost, d.prob.Power
	d.cw = grown(d.cw, d.nf)
	d.pw = grown(d.pw, d.nf)
	for m := 1; m <= d.M; m++ {
		np := pm.NodePower(m)
		d.cw[d.fieldNew(m)] = 1 + cm.Create[m-1]
		d.pw[d.fieldNew(m)] = np
		for i := 1; i <= d.M; i++ {
			d.cw[d.fieldReuse(i, m)] = 1 + cm.Change[i-1][m-1] - cm.Delete[i-1]
			d.pw[d.fieldReuse(i, m)] = np
		}
	}
	base := 0.0
	for i := 1; i <= d.M; i++ {
		base += cm.Delete[i-1] * float64(d.totalPre[i-1])
	}
	d.baseC = base
}

// price folds the cost and power of the count vector coords, left to
// right in field order, skipping zero coordinates.
func (d *PowerDP) price(coords []int32) (c, p float64) {
	c = d.baseC
	for f, x := range coords {
		if x != 0 {
			c += d.cw[f] * float64(x)
			p += d.pw[f] * float64(x)
		}
	}
	return c, p
}

// scanRoot prices the run starts of the root table and stores the
// Pareto front in d.front ordered by ascending cost and strictly
// descending power. It polls the solver's cancellation gate once per
// root row.
func (d *PowerDP) scanRoot() error {
	t := d.prob.Tree
	r := t.Root()
	mode0 := d.prob.Existing.Mode(r)
	tab, sh := d.final(r)

	d.totalPre = grown(d.totalPre, d.M)
	for i := range d.totalPre {
		d.totalPre[i] = 0
	}
	for j := 0; j < t.N(); j++ {
		if m := d.prob.Existing.Mode(j); m != tree.NoMode {
			d.totalPre[m-1]++
		}
	}
	d.fillWeights()

	// Walk the rows in row order: an odometer over every field with
	// n_M held at 0, whose out is the flat index of the row's cell 0.
	nM := d.M - 1
	d.rowDims = append(d.rowDims[:0], sh.dims...)
	d.rowDims[nM] = 1
	d.coords = grown(d.coords, d.nf)
	var o odometer
	o.init(d.rowDims, sh.strides, d.coords)

	pm := d.prob.Power
	front := d.front[:0]
	priced := 0
	for row := int32(0); row < int32(sh.size)/sh.dims[nM]; row++ {
		if err := d.cancel.err(); err != nil {
			d.front = front
			return err
		}
		for _, run := range tab.row(row) {
			o.coords[nM] = run.start
			c, p := d.price(o.coords)
			cell := o.out + run.start*sh.strides[nM]
			if run.val == 0 {
				front = pushFront(front, frontEntry{cost: c, power: p, rootCell: cell, rootMode: 0})
			}
			if minMode, ok := pm.ModeFor(int(run.val)); ok {
				for m := minMode; m <= d.M; m++ {
					f := d.fieldNew(m)
					if mode0 != 0 {
						f = d.fieldReuse(int(mode0), m)
					}
					front = pushFront(front, frontEntry{
						cost: c + d.cw[f], power: p + d.pw[f],
						rootCell: cell, rootMode: uint8(m),
					})
				}
			}
			priced++
		}
		o.coords[nM] = 0
		o.next()
	}
	d.front = front
	d.paretoPrune()
	d.rootRepriced = priced
	return nil
}

// pushFront inserts e into a front kept ascending in cost with strictly
// descending power, dropping e when an entry weakly dominates it and
// evicting the entries e dominates. Of two entries tied in both fields
// the one with the smaller (rootCell, rootMode) stays (frontBefore), so
// the front is a function of the inserted set, not of its order.
func pushFront(front []frontEntry, e frontEntry) []frontEntry {
	i := sort.Search(len(front), func(k int) bool { return front[k].cost >= e.cost })
	if i > 0 && front[i-1].power <= e.power {
		return front // dominated by a cheaper entry
	}
	if i < len(front) && front[i].cost == e.cost &&
		(front[i].power < e.power || front[i].power == e.power && frontBefore(front[i], e) <= 0) {
		return front // dominated at equal cost, or tied with an earlier entry
	}
	j := i
	for j < len(front) && front[j].power >= e.power {
		j++
	}
	if j > i {
		front[i] = e
		return append(front[:i+1], front[j:]...)
	}
	front = append(front, frontEntry{})
	copy(front[i+1:], front[i:])
	front[i] = e
	return front
}

// frontBefore orders the candidates of the root scan by (rootCell,
// rootMode), the tie rule between entries of equal cost and power.
func frontBefore(a, b frontEntry) int {
	return cmp.Or(cmp.Compare(a.rootCell, b.rootCell), cmp.Compare(a.rootMode, b.rootMode))
}
