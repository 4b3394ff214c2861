package core

import (
	"fmt"
	"math"

	"replicatree/internal/cost"
	"replicatree/internal/tree"
)

// denseMinCost is the reference for MinCostSolver: MinCost-WithPre
// (Algorithms 2-4) on dense (e reused, n new) tables, with one recorded
// decision per cell. Its merge scans acc cells in ascending (e, n)
// order, child cells in ascending (ec, nc) order, and for each pair the
// no-place option before the place option, keeping the first writer of
// every value, so its placements fix the tie-breaks the run kernel must
// reproduce. It assumes nothing about the shape of a row. down marks
// the nodes that cannot host a replica (nil: none).
type denseMinCost struct {
	t        *tree.Tree
	existing *tree.Replicas
	down     []bool
	w        int32

	vals       [][]int32 // per node: final table, row-major (e, n)
	dimE, dimN []int32
	decs       [][][]denseDec // per node, per fold step: one per output cell
	stepN      [][]int32      // per node, per fold step: the output's dimN
}

type denseDec struct {
	ePrev, nPrev int32
	place        bool
}

// solveDense runs denseMinCost on one instance.
func solveDense(t *tree.Tree, existing *tree.Replicas, down []bool, W int, c cost.Simple) (*denseMinCost, MinCostResult, error) {
	if existing == nil {
		existing = tree.ReplicasOf(t)
	}
	if m := t.MaxClientSum(); m > W {
		return nil, MinCostResult{}, fmt.Errorf("core: a node's clients demand %d > W=%d: %w", m, W, ErrInfeasible)
	}
	n := t.N()
	d := &denseMinCost{
		t: t, existing: existing, down: down, w: int32(W),
		vals: make([][]int32, n), dimE: make([]int32, n), dimN: make([]int32, n),
		decs: make([][][]denseDec, n), stepN: make([][]int32, n),
	}
	for _, j := range t.PostOrder() {
		d.node(j)
	}
	res, err := d.scanRoot(c)
	return d, res, err
}

func (d *denseMinCost) isDown(j int) bool { return d.down != nil && d.down[j] }

func (d *denseMinCost) node(j int) {
	acc := []int32{int32(d.t.ClientSum(j))}
	var accE, accN int32
	for _, ch := range d.t.Children(j) {
		chE, chN, chVals := d.dimE[ch], d.dimN[ch], d.vals[ch]
		pre, down := d.existing.Has(ch), d.isDown(ch)
		outE, outN := accE+chE, accN+chN
		switch {
		case down:
		case pre:
			outE++
		default:
			outN++
		}
		out := make([]int32, (outE+1)*(outN+1))
		for i := range out {
			out[i] = invalid
		}
		decs := make([]denseDec, len(out))
		update := func(e, n, v int32, dec denseDec) {
			idx := e*(outN+1) + n
			if out[idx] == invalid || v < out[idx] {
				out[idx] = v
				decs[idx] = dec
			}
		}
		for e := int32(0); e <= accE; e++ {
			for n := int32(0); n <= accN; n++ {
				a := acc[e*(accN+1)+n]
				if a == invalid {
					continue
				}
				dec := denseDec{ePrev: e, nPrev: n}
				decP := denseDec{ePrev: e, nPrev: n, place: true}
				for ec := int32(0); ec <= chE; ec++ {
					for nc := int32(0); nc <= chN; nc++ {
						cv := chVals[ec*(chN+1)+nc]
						if cv == invalid {
							continue
						}
						if a+cv <= d.w {
							update(e+ec, n+nc, a+cv, dec)
						}
						switch {
						case down:
						case pre:
							update(e+ec+1, n+nc, a, decP)
						default:
							update(e+ec, n+nc+1, a, decP)
						}
					}
				}
			}
		}
		d.decs[j] = append(d.decs[j], decs)
		d.stepN[j] = append(d.stepN[j], outN)
		acc, accE, accN = out, outE, outN
	}
	d.vals[j], d.dimE[j], d.dimN[j] = acc, accE, accN
}

func (d *denseMinCost) scanRoot(c cost.Simple) (MinCostResult, error) {
	r := d.t.Root()
	E := d.existing.Count()
	rootPre := d.existing.Has(r)
	bestCost := math.Inf(1)
	bestE, bestN := int32(-1), int32(-1)
	bestPlace := false
	var bestServers, bestReused int
	consider := func(e, n int32, place bool) {
		servers, reused := int(e)+int(n), int(e)
		if place {
			servers++
			if rootPre {
				reused++
			}
		}
		if cc := c.Of(servers, reused, E); cc < bestCost {
			bestCost, bestE, bestN, bestPlace = cc, e, n, place
			bestServers, bestReused = servers, reused
		}
	}
	for e := int32(0); e <= d.dimE[r]; e++ {
		for n := int32(0); n <= d.dimN[r]; n++ {
			v := d.vals[r][e*(d.dimN[r]+1)+n]
			if v == invalid {
				continue
			}
			if v == 0 {
				consider(e, n, false)
			}
			if v <= d.w && !d.isDown(r) {
				consider(e, n, true)
			}
		}
	}
	if bestE < 0 {
		return MinCostResult{}, fmt.Errorf("core: %w", ErrInfeasible)
	}
	p := tree.ReplicasOf(d.t)
	if bestPlace {
		p.Set(r, 1)
	}
	d.rebuild(p, r, bestE, bestN)
	return MinCostResult{Placement: p, Cost: bestCost, Servers: bestServers,
		Reused: bestReused, New: bestServers - bestReused}, nil
}

func (d *denseMinCost) rebuild(p *tree.Replicas, j int, e, n int32) {
	kids := d.t.Children(j)
	for st := len(kids) - 1; st >= 0; st-- {
		ch := kids[st]
		dec := d.decs[j][st][e*(d.stepN[j][st]+1)+n]
		ce, cn := e-dec.ePrev, n-dec.nPrev
		if dec.place {
			p.Set(ch, 1)
			if d.existing.Has(ch) {
				ce--
			} else {
				cn--
			}
		}
		d.rebuild(p, ch, ce, cn)
		e, n = dec.ePrev, dec.nPrev
	}
	if e != 0 || n != 0 {
		panic(fmt.Sprintf("dense reconstruction reached (%d,%d) at node %d", e, n, j))
	}
}
