package core

import (
	"fmt"

	"replicatree/internal/tree"
)

// qInf marks the infeasible cells of denseQoS's tables.
const qInf = int(1) << 60

const (
	qEquip uint8 = iota + 1
	qEscape
)

// denseQoS is the reference for QoSSolver: the closest-policy QoS DP
// on dense tables, tab[r][L] the least flow escaping the subtree with r
// replicas inside it whose absorbing ancestor may sit at any depth
// >= some bound <= L, with one recorded split per merge cell and one
// choice per table cell. Its knapsack merge scans acc cells r1
// ascending and keeps the first strict improvement, and its closures
// write the equip option before the escape option, overwriting only on
// a strict improvement, so its placements fix the tie-breaks the run
// kernel must reproduce. It caps nothing: flows above W stay in its
// tables, so it assumes nothing about the shape of a column.
type denseQoS struct {
	t *tree.Tree
	c *tree.Constraints
	w int

	size    []int
	tabs    [][]int   // per node, row-major (r, L), rows(j) wide
	choices [][]uint8 // per node, one per tab cell
	splits  [][][]int // per node, per fold step: the child's r2 per output cell
}

// rows returns the width of node j's table: an escaping flow must be
// absorbed by a proper ancestor, so requirements live in
// 0..max(depth(j)-1, 0).
func (d *denseQoS) rows(j int) int { return max(d.t.Depth(j)-1, 0) + 1 }

// solveDenseQoS runs denseQoS on one instance (c nil: unconstrained).
func solveDenseQoS(t *tree.Tree, W int, c *tree.Constraints) (*denseQoS, *tree.Replicas, error) {
	n := t.N()
	d := &denseQoS{
		t: t, c: c, w: W,
		size: make([]int, n), tabs: make([][]int, n),
		choices: make([][]uint8, n), splits: make([][][]int, n),
	}
	for _, j := range t.PostOrder() {
		d.node(j)
	}
	root := t.Root()
	best := -1
	for r := 0; r <= d.size[root]; r++ {
		if d.tabs[root][r] == 0 {
			best = r
			break
		}
	}
	if best < 0 {
		return d, nil, fmt.Errorf("core: %w", ErrInfeasible)
	}
	res := tree.ReplicasOf(t)
	d.build(res, root, best, 0)
	return d, res, nil
}

func (d *denseQoS) node(j int) {
	t := d.t
	D := t.Depth(j)
	accRows := D + 1 // child requirements live in 0..D
	acc := make([]int, accRows)
	sz := 0
	d.splits[j] = make([][]int, len(t.Children(j)))
	for st, child := range t.Children(j) {
		csz := d.size[child]
		bw := d.c.Bandwidth(child)
		ctab := d.tabs[child]
		next := make([]int, (sz+csz+1)*accRows)
		for i := range next {
			next[i] = qInf
		}
		spl := make([]int, len(next))
		for r1 := 0; r1 <= sz; r1++ {
			for r2 := 0; r2 <= csz; r2++ {
				o := (r1 + r2) * accRows
				for L := 0; L < accRows; L++ {
					a := acc[r1*accRows+L]
					f := ctab[r2*accRows+L]
					if a >= qInf || f >= qInf || (bw >= 0 && f > bw) {
						continue
					}
					if v := a + f; v < next[o+L] {
						next[o+L] = v
						spl[o+L] = r2
					}
				}
			}
		}
		d.splits[j][st] = spl
		acc = next
		sz += csz
	}
	d.size[j] = sz + 1

	own := t.ClientSum(j)
	ownL := 0 // minimal server depth the node's own clients tolerate
	for k, dem := range t.Clients(j) {
		if dem > 0 {
			ownL = max(ownL, d.c.MinServerDepth(j, k, D))
		}
	}

	rows := d.rows(j)
	tab := make([]int, (d.size[j]+1)*rows)
	ch := make([]uint8, len(tab))
	for r := 0; r <= d.size[j]; r++ {
		o := r * rows
		for L := 0; L < rows; L++ {
			tab[o+L] = qInf
		}
		// Equip j: the whole traversing flow is absorbed here.
		if r >= 1 {
			if a := acc[(r-1)*accRows+D]; a < qInf && own+a <= d.w {
				for L := 0; L < rows; L++ {
					tab[o+L] = 0
					ch[o+L] = qEquip
				}
			}
		}
		// Let the flow pass: only while every contributing client
		// tolerates a server at depth <= D-1.
		if j != t.Root() {
			for L := ownL; L < rows && r <= sz; L++ {
				if a := acc[r*accRows+L]; a < qInf {
					if f := own + a; f < tab[o+L] {
						tab[o+L] = f
						ch[o+L] = qEscape
					}
				}
			}
		} else if own == 0 && r <= sz && acc[r*accRows] == 0 && tab[o] > 0 {
			// The root has no ancestor: passing is only "nothing to
			// pass".
			tab[o] = 0
			ch[o] = qEscape
		}
	}
	d.tabs[j], d.choices[j] = tab, ch
}

// build reconstructs the placement behind tab cell (r, L) of node j
// into res.
func (d *denseQoS) build(res *tree.Replicas, j, r, L int) {
	kids := d.t.Children(j)
	accRows := d.t.Depth(j) + 1
	if d.choices[j][r*d.rows(j)+L] == qEquip {
		res.Set(j, 1)
		r, L = r-1, d.t.Depth(j)
	}
	for st := len(kids) - 1; st >= 0; st-- {
		r2 := d.splits[j][st][r*accRows+L]
		d.build(res, kids[st], r2, L)
		r -= r2
	}
}
