package core

import (
	"slices"
	"sort"

	"replicatree/internal/power"
	"replicatree/internal/tree"
)

// This file holds the root end of the power dynamic program: the
// incremental root merge and the delta-priced, block-sharded root scan.
//
// The root is special twice over. First, its merges fold the largest
// tables of the whole tree, so the driver runs it alone on worker 0
// with a cancellation poll between fold steps. Like every node it
// restarts its fold at the first child whose subtree (or pre-existing
// mode) changed and replays only the suffix from the retained step
// outputs; its final table is then decoded dense for the scan.
//
// Second, the root table must be priced — Equations (3) and (4) on the
// global count vector — on every solve, because the cost model
// invalidates no subtree table. Both equations are affine in the count
// vector: cost = baseC + Σ_f cw[f]·v_f and power = Σ_f pw[f]·v_f, with
// per-field weights cw/pw (a server always costs 1 plus its
// create/change price, minus the deletion it avoids when reused; a
// server at mode m always burns NodePower(m)). The scan walks the table
// in row-major order keeping per-field prefix sums of both dot
// products: one odometer step changes one coordinate and resets the
// trailing ones to zero, so the amortised pricing cost per cell is O(1)
// instead of the former O(M²) loop. The prefix sums are folded left to
// right skipping zero coordinates, which makes every cell's price a
// pure function of its coordinates — bit-identical whether the walk
// entered the cell from the previous one or started cold at a block
// boundary.
//
// The scan is sharded into fixed-size blocks of cells, walked in order
// with a cancellation poll between blocks. Each block keeps a retained,
// exactly-pruned local Pareto front; the final front is the eps-aware
// prune of the concatenated block fronts, which equals the prune of the
// full candidate list because weak domination is transitive (a locally
// dominated candidate is dominated in the union too). Because a block
// front is a pure function of the block's cell values and the pricing
// context, re-solves diff each block of the recomputed root table
// against the previous solve's copy and reuse the retained front of
// every unchanged block — SolveStats.RootCellsRepriced counts the cells
// of the blocks that actually re-priced. When nothing relevant changed
// at all (clean tables, same cost and power models, same pre-existing
// context) the scan is skipped outright and the previous front stands.

// rootBlockCells is the shard granularity of the root scan. Small
// enough that localized table changes leave most blocks untouched,
// large enough that per-block bookkeeping stays negligible.
const rootBlockCells = 2048

// rootBlock is one shard of the root scan: a retained local Pareto
// front and whether the last scan re-priced it.
type rootBlock struct {
	front    []frontEntry
	repriced bool
}

// runRoot recomputes the root's final table, restarting the merge fold
// at the first fold step whose inputs changed and keeping every earlier
// partial merge from the previous solve (see PowerDP.fold), so a
// change under the q-th root child re-merges only fold steps q and on.
// The final table is decoded into the dense rootVals the scan reads.
func (d *PowerDP) runRoot() error {
	r := d.t.Root()
	d.rootRecomputed = false
	start, err := d.fold(r, 0, true)
	if start < 0 {
		d.rootRetained = len(d.t.Children(r)) // every retained root merge is still exact
		return nil
	}
	d.rootRetained = start
	d.recomputed++
	d.rootRecomputed = true
	if err != nil {
		return err
	}
	// The table being replaced is the one the last scan priced (a
	// recomputed root is always scanned), so it becomes the diff base.
	tab, sh := d.final(r)
	d.prevRoot, d.rootVals = d.rootVals, grown(d.prevRoot, sh.size)
	decodeTable(tab, sh, d.M-1, d.rootVals, &d.arenas[0])
	return nil
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

// scanRoot prices the root table and stores the Pareto front in d.front
// ordered by ascending cost and strictly descending power, reusing as
// much of the previous solve's scan as the changed inputs allow. It
// polls the solver's cancellation gate between scan blocks; a non-nil
// error means the scan was abandoned mid-sweep with scanOK left false,
// so the next solve re-prices every block.
func (d *PowerDP) scanRoot() error {
	t := d.prob.Tree
	r := t.Root()
	rootMode0 := d.prob.Existing.Mode(r)
	_, sh := d.final(r)
	vals := d.rootVals

	d.totalPre = grown(d.totalPre, d.M)
	for i := range d.totalPre {
		d.totalPre[i] = 0
	}
	for j := 0; j < t.N(); j++ {
		if m := d.prob.Existing.Mode(j); m != tree.NoMode {
			d.totalPre[m-1]++
		}
	}

	// The retained block fronts (and the full previous front) are valid
	// only under the pricing context they were computed with.
	sameContext := d.scanOK && d.prob.Power.Equal(d.scanPower) && d.prob.Cost.Equal(d.scanCost) &&
		rootMode0 == d.scanMode0 && slices.Equal(d.totalPre, d.scanPre)
	if sameContext && !d.rootRecomputed {
		// Clean tables, identical pricing: the previous front stands.
		d.rootScanned, d.rootRepriced = 0, 0
		return nil
	}

	d.fillWeights()
	canDiff := sameContext && slices.Equal(sh.dims, d.prevDims)

	// The sweep below overwrites retained block fronts in place, so the
	// scan state is invalid until it completes; flipping scanOK first
	// makes a cancelled sweep safe — the next solve sees sameContext
	// false and re-prices every block.
	d.scanOK = false

	nb := (sh.size + rootBlockCells - 1) / rootBlockCells
	d.blocks = grownKeep(d.blocks, nb)
	blocks := d.blocks[:nb]
	for bi := 0; bi < nb; bi++ {
		if err := d.cancel.err(); err != nil {
			return err
		}
		d.scanOneBlock(bi, vals, sh, rootMode0, canDiff)
	}

	repriced := 0
	cands := d.cands[:0]
	for bi := range blocks {
		if blocks[bi].repriced {
			repriced += min((bi+1)*rootBlockCells, sh.size) - bi*rootBlockCells
		}
		cands = append(cands, blocks[bi].front...)
	}
	d.cands = cands
	d.paretoPrune()
	d.rootScanned, d.rootRepriced = sh.size, repriced

	// Retain the pricing context for the next solve's diff; runRoot
	// keeps the scanned table.
	d.prevDims = append(d.prevDims[:0], sh.dims...)
	d.scanPower = power.Model{
		Caps:   append(d.scanPower.Caps[:0], d.prob.Power.Caps...),
		Static: d.prob.Power.Static,
		Alpha:  d.prob.Power.Alpha,
	}
	d.retainScanCost()
	d.scanMode0 = rootMode0
	d.scanPre = append(d.scanPre[:0], d.totalPre...)
	d.scanOK = true
	return nil
}

// retainScanCost deep-copies the solve's cost model into retained
// buffers, so later in-place mutations of the caller's slices cannot
// alias the equality check.
func (d *PowerDP) retainScanCost() {
	cm := d.prob.Cost
	d.scanCost.Create = append(d.scanCost.Create[:0], cm.Create...)
	d.scanCost.Delete = append(d.scanCost.Delete[:0], cm.Delete...)
	rows := grownKeep(d.scanCost.Change, len(cm.Change))
	for i := range cm.Change {
		rows[i] = append(rows[i][:0], cm.Change[i]...)
	}
	d.scanCost.Change = rows
}

// scanOneBlock diffs block bi of the root table against the previous
// solve's copy and re-prices it only when some cell changed (or no diff
// is possible).
func (d *PowerDP) scanOneBlock(bi int, vals []int32, sh shape, mode0 uint8, canDiff bool) {
	blk := &d.blocks[bi]
	lo := bi * rootBlockCells
	hi := min(lo+rootBlockCells, sh.size)
	if canDiff && slices.Equal(vals[lo:hi], d.prevRoot[lo:hi]) {
		blk.repriced = false // retained front still exact
		return
	}
	blk.repriced = true
	d.scanBlock(blk, lo, hi, vals, sh, mode0)
}

// scanBlock walks the cells [lo, hi) of the root table, pricing every
// feasible (cell, root placement) candidate with the prefix-sum walker
// and keeping the block's exact Pareto front in blk.front.
func (d *PowerDP) scanBlock(blk *rootBlock, lo, hi int, vals []int32, sh shape, mode0 uint8) {
	nf := d.nf
	d.coords = grown(d.coords, nf)
	d.cs = grown(d.cs, nf+1)
	d.ps = grown(d.ps, nf+1)
	coords, cs, ps := d.coords, d.cs, d.ps

	// Position the walker at lo: decompose the flat index and fold the
	// prefix sums left to right, skipping zero coordinates so the fold
	// is a pure function of the cell, not of the walk that reached it.
	cs[0], ps[0] = d.baseC, 0
	rem := int32(lo)
	for f := 0; f < nf; f++ {
		c := rem / sh.strides[f]
		rem %= sh.strides[f]
		coords[f] = c
		if c != 0 {
			cs[f+1] = cs[f] + d.cw[f]*float64(c)
			ps[f+1] = ps[f] + d.pw[f]*float64(c)
		} else {
			cs[f+1], ps[f+1] = cs[f], ps[f]
		}
	}

	front := blk.front[:0]
	pm := d.prob.Power
	for flat := lo; flat < hi; flat++ {
		if v := vals[flat]; v <= d.wm {
			c, p := cs[nf], ps[nf]
			if v == 0 {
				front = pushFront(front, frontEntry{cost: c, power: p, rootCell: int32(flat), rootMode: 0})
			}
			if minMode, ok := pm.ModeFor(int(v)); ok {
				for m := minMode; m <= d.M; m++ {
					f := d.fieldNew(m)
					if mode0 != 0 {
						f = d.fieldReuse(int(mode0), m)
					}
					front = pushFront(front, frontEntry{
						cost: c + d.cw[f], power: p + d.pw[f],
						rootCell: int32(flat), rootMode: uint8(m),
					})
				}
			}
		}
		// Advance the odometer and refresh the prefix sums from the
		// bumped field down (trailing fields reset to zero, so their
		// sums propagate unchanged — the skip-zero fold again).
		h := nf - 1
		for ; h >= 0; h-- {
			coords[h]++
			if coords[h] < sh.dims[h] {
				break
			}
			coords[h] = 0
		}
		if h < 0 {
			break // wrapped past the last cell
		}
		cs[h+1] = cs[h] + d.cw[h]*float64(coords[h])
		ps[h+1] = ps[h] + d.pw[h]*float64(coords[h])
		for g := h + 1; g < nf; g++ {
			cs[g+1], ps[g+1] = cs[g], ps[g]
		}
	}
	blk.front = front
}

// pushFront inserts e into a front kept ascending in cost with strictly
// descending power, dropping e when an entry weakly dominates it and
// evicting the entries e dominates. Ties in both fields keep the
// earlier-scanned entry, so a block front is deterministic for the
// block's fixed scan order.
func pushFront(front []frontEntry, e frontEntry) []frontEntry {
	i := sort.Search(len(front), func(k int) bool { return front[k].cost >= e.cost })
	if i > 0 && front[i-1].power <= e.power {
		return front // dominated by a cheaper-or-equal entry
	}
	if i < len(front) && front[i].cost == e.cost && front[i].power <= e.power {
		return front // dominated at equal cost
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
