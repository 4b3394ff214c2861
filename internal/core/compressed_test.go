package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"replicatree/internal/cost"
	"replicatree/internal/power"
	"replicatree/internal/rng"
	"replicatree/internal/tree"
)

// These tests prove the compression contract: solves running the
// breakpoint-compressed merge kernels must be byte-identical — same
// placements, fronts and costs, same tie-breaks — to solves running
// dense kernels, over cold solves and drift sequences at every worker
// count. All three solvers run on breakpoints only and are checked
// against test-only dense references.

// TestMinCostCompressedMatchesDense checks the run-native MinCost
// kernel against the dense reference (denseMinCost) over drift
// sequences at one, two and eight workers: same placements, costs and
// server splits, and every node's final table equal to the dense one
// cell for cell. The second half of each sequence chains solutions
// into the next pre-existing set, so the e axis is live. It also checks
// the monotone-row contract on the dense tables, which assume nothing
// about row shape: the run tables are exact only because it holds.
func TestMinCostCompressedMatchesDense(t *testing.T) {
	// Delete = 1 prices keeping a pre-existing root exactly like
	// dropping it: a tie the root scan must break as the dense scan does.
	costs := []cost.Simple{{Create: 0.1, Delete: 0.01}, {Create: 0.3, Delete: 1}}
	for i := 0; i < reuseTreeCount(t); i++ {
		src := rng.Derive(211, i)
		tr := tree.MustGenerate(reuseGen(i), src)
		workers := []int{1, 2, 8}
		comps := make([]*MinCostSolver, len(workers))
		dsts := make([]*tree.Replicas, len(workers))
		for k, w := range workers {
			comps[k] = NewMinCostSolver(tr)
			comps[k].SetWorkers(w)
			dsts[k] = tree.ReplicasOf(tr)
		}
		existing := tree.ReplicasOf(tr)
		W := 10
		for step := 0; step < 10; step++ {
			driftClients(tr, src.IntN(4), src)
			if step%5 == 4 {
				W = 8 + src.IntN(3)
			}
			c := costs[step%len(costs)]
			dense, want, wantErr := solveDense(tr, existing, nil, W, c)
			for k, w := range workers {
				got, gotErr := comps[k].SolveInto(existing, W, c, dsts[k])
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("tree %d step %d workers %d: dense err %v, run err %v",
						i, step, w, wantErr, gotErr)
				}
				if wantErr != nil {
					continue
				}
				if !want.Placement.Equal(got.Placement) || want.Cost != got.Cost ||
					want.Servers != got.Servers || want.Reused != got.Reused {
					t.Fatalf("tree %d step %d workers %d: dense %v (cost %v) != run %v (cost %v)",
						i, step, w, want.Placement, want.Cost, got.Placement, got.Cost)
				}
				checkRunTables(t, comps[k], dense)
			}
			if wantErr != nil {
				continue
			}
			if step >= 5 {
				existing.Reset()
				for j := 0; j < tr.N(); j++ {
					if want.Placement.Has(j) {
						existing.Set(j, 1)
					}
				}
				// A pre-existing root that may carry no load.
				existing.Set(tr.Root(), 1)
			}
		}
		for _, s := range comps {
			s.SetWorkers(1)
		}
	}
}

// checkRunTables compares every node's final run table of s with the
// dense reference's table: same dimensions, every dense row monotone
// (an infeasible prefix, then non-increasing values), and the run rows
// decoding to exactly the dense rows.
func checkRunTables(t *testing.T, s *MinCostSolver, d *denseMinCost) {
	t.Helper()
	for j := 0; j < s.t.N(); j++ {
		tab := s.table(j)
		if tab.dimE != d.dimE[j] || tab.dimN != d.dimN[j] {
			t.Fatalf("node %d: run table %dx%d, dense %dx%d", j, tab.dimE, tab.dimN, d.dimE[j], d.dimN[j])
		}
		w := int(tab.dimN) + 1
		got := make([]int32, w)
		for e := int32(0); e <= tab.dimE; e++ {
			want := d.vals[j][int(e)*w : int(e+1)*w]
			if _, ok := encodeRuns32(want, invalid, nil); !ok {
				t.Fatalf("node %d row %d breaks the monotone-row contract: %v", j, e, want)
			}
			decodeRuns32(tab.row(e), got, invalid)
			if !slices.Equal(got, want) {
				t.Fatalf("node %d row %d: runs decode to %v, dense %v", j, e, got, want)
			}
		}
	}
}

// densePower is the test-only dense reference of the power DP: every
// fold step runs denseMergeOracle on dense tables and keeps its
// provenance, every cell of the dense root table is priced
// (denseRootScan), and placements are rebuilt from the dense
// provenance.
type densePower struct {
	t     *tree.Tree
	prov  [][][]uint64 // per node, per fold step
	front []frontEntry
}

// solveDensePower solves prob densely. A PowerDP supplies what the
// reference shares with the run solver and does not check: input
// validation, the table shapes (functions of subtree counts), the
// per-field pricing weights and the eps merge of the final front.
func solveDensePower(tr *tree.Tree, prob PowerProblem) (*densePower, error) {
	d := NewPowerDP(tr)
	// A solve the scan finds infeasible still commits its tables.
	if _, err := d.Solve(prob); err != nil && !(errors.Is(err, ErrInfeasible) && d.solved) {
		return nil, err
	}
	r := &densePower{t: tr, prov: make([][][]uint64, tr.N())}
	vals := make([][]int32, tr.N())
	shapes := make([]shape, tr.N())
	for _, j := range tr.PostOrder() {
		acc, accSh := []int32{int32(tr.ClientSum(j))}, d.unit
		for st, ch := range tr.Children(j) {
			outSh := d.steps[j][st].sh
			out := make([]int32, outSh.size)
			prov := make([]uint64, outSh.size)
			denseMergeOracle(d, ch, acc, accSh, vals[ch], shapes[ch], outSh, out, prov)
			r.prov[j] = append(r.prov[j], prov)
			acc, accSh = out, outSh
		}
		vals[j], shapes[j] = acc, accSh
	}
	d.front = denseRootScan(d, vals[tr.Root()], shapes[tr.Root()])
	d.paretoPrune()
	r.front = slices.Clone(d.front)
	if len(r.front) == 0 {
		return nil, ErrInfeasible
	}
	return r, nil
}

// denseRootScan prices every reached cell of the dense root table vals
// (shape sh) with every root placement, each cell's price a plain dot
// product in field order that skips zero coordinates, and returns the
// exact Pareto front of the candidates. The run solver prices run
// starts only; this scan checks that no other cell reaches the front.
func denseRootScan(d *PowerDP, vals []int32, sh shape) []frontEntry {
	mode0 := d.prob.Existing.Mode(d.t.Root())
	coords := make([]int32, d.nf)
	var front []frontEntry
	for flat, v := range vals {
		if v > d.wm {
			continue
		}
		c, p := d.baseC, 0.0
		rem := int32(flat)
		for f := range coords {
			coords[f] = rem / sh.strides[f]
			rem %= sh.strides[f]
			if coords[f] != 0 {
				c += d.cw[f] * float64(coords[f])
				p += d.pw[f] * float64(coords[f])
			}
		}
		if v == 0 {
			front = pushFront(front, frontEntry{cost: c, power: p, rootCell: int32(flat)})
		}
		if minMode, ok := d.prob.Power.ModeFor(int(v)); ok {
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
	return front
}

// place rebuilds the placement of front entry f from the dense
// provenance.
func (r *densePower) place(f frontEntry) *tree.Replicas {
	dst := tree.ReplicasOf(r.t)
	if f.rootMode != 0 {
		dst.Set(r.t.Root(), f.rootMode)
	}
	var walk func(j int, cell int32)
	walk = func(j int, cell int32) {
		kids := r.t.Children(j)
		for st := len(kids) - 1; st >= 0; st-- {
			aPrev, cCell, mode := unpackProv(r.prov[j][st][cell])
			if mode != 0 {
				dst.Set(kids[st], mode)
			}
			walk(kids[st], cCell)
			cell = aPrev
		}
	}
	walk(r.t.Root(), f.rootCell)
	return dst
}

// TestPowerCompressedMatchesDense checks the run-native power DP
// against the dense reference (solveDensePower) over drift sequences
// at one, two and eight workers, under two and three modes: the same
// error outcomes, the same front, and at every front point the same
// placement. The sequences drift demands, change initial modes, grow
// the pre-existing set and empty it.
func TestPowerCompressedMatchesDense(t *testing.T) {
	models := []power.Model{powerModel2(), power.MustNew([]int{3, 6, 10}, 12.5, 3)}
	for _, pm := range models {
		M := pm.M()
		cm := cost.UniformModal(M, 0.1, 0.01, 0.001)
		for i := 0; i < reuseTreeCount(t)/(2*M); i++ {
			src := rng.Derive(uint64(225+M), i)
			n := []int{0, 0, 18, 9}[M] + i%10/M
			tr := tree.MustGenerate(tree.PowerConfig(n), src)
			workers := []int{1, 2, 8}
			comps := make([]*PowerDP, len(workers))
			for k, w := range workers {
				comps[k] = NewPowerDP(tr)
				comps[k].SetWorkers(w)
			}
			existing, err := tree.RandomReplicas(tr, 1+i%3, M, src)
			if err != nil {
				t.Fatal(err)
			}
			for step := 0; step < 8; step++ {
				driftClients(tr, src.IntN(3), src)
				switch step {
				case 3: // a pre-existing server changes its initial mode
					j := existing.Nodes()[src.IntN(existing.Count())]
					existing.Set(j, uint8(1+(int(existing.Mode(j))%M)))
				case 5:
					existing.Set(1+src.IntN(tr.N()-1), uint8(1+src.IntN(M)))
				case 7:
					existing.Reset()
				}
				prob := PowerProblem{Tree: tr, Existing: existing, Power: pm, Cost: cm}
				want, wantErr := solveDensePower(tr, prob)
				for k, w := range workers {
					where := fmt.Sprintf("M=%d tree %d step %d workers %d", M, i, step, w)
					got, gotErr := comps[k].Solve(prob)
					if (wantErr == nil) != (gotErr == nil) {
						t.Fatalf("%s: dense err %v, run err %v", where, wantErr, gotErr)
					}
					if wantErr != nil {
						continue
					}
					gf := got.Front()
					if len(gf) != len(want.front) {
						t.Fatalf("%s: front sizes %d != %d", where, len(gf), len(want.front))
					}
					for q, f := range want.front {
						if gf[q] != (ParetoPoint{Cost: f.cost, Power: f.power}) {
							t.Fatalf("%s: front[%d] %v != dense %v", where, q, gf[q], f)
						}
						if g, w := got.At(q).Placement, want.place(f); !g.Equal(w) {
							t.Fatalf("%s: front point %d placement %v != dense %v", where, q, g, w)
						}
					}
				}
			}
			for _, s := range comps {
				s.SetWorkers(1)
			}
		}
	}
}

// TestQoSCompressedMatchesDense checks the run-native QoS kernel
// against the dense reference (denseQoS) over drift sequences at one,
// two and eight workers: same placements and error outcomes, and every
// node's final table equal, cell for cell, to the dense table with the
// cells above W read as infeasible. It checks the monotone-row
// contract on those capped dense tables, since the run tables are
// exact only because it holds, and that some uncapped dense column
// breaks it, so the cap is exercised. The sequences vary demands, W
// (down to infeasible, and once math.MaxInt, whose sums must not
// overflow the run kernel), uniform QoS bounds, link bandwidths and a
// nil constraint set.
func TestQoSCompressedMatchesDense(t *testing.T) {
	broken := 0
	for i := 0; i < reuseTreeCount(t); i++ {
		src := rng.Derive(223, i)
		tr := tree.MustGenerate(reuseGen(i), src)
		cons := tree.NewConstraints(tr)
		cons.SetUniformQoS(tr, 4)
		workers := []int{1, 2, 8}
		comps := make([]*QoSSolver, len(workers))
		dsts := make([]*tree.Replicas, len(workers))
		for k, w := range workers {
			comps[k] = NewQoSSolver(tr)
			comps[k].SetWorkers(w)
			dsts[k] = tree.ReplicasOf(tr)
		}
		W := 10
		for step := 0; step < 12; step++ {
			driftClients(tr, src.IntN(4), src)
			c := cons
			switch step % 6 {
			case 1:
				cons.SetUniformQoS(tr, 2+src.IntN(4))
			case 2:
				W = []int{4, 7, 10, 25}[src.IntN(4)]
			case 3:
				for b := 0; b < 3; b++ {
					cons.SetBandwidth(1+src.IntN(tr.N()-1), 4+src.IntN(10))
				}
			case 4:
				c = nil
			}
			if step == 11 {
				W = math.MaxInt
			}
			dense, want, wantErr := solveDenseQoS(tr, W, c)
			broken += uncappedBroken(dense)
			for k, w := range workers {
				got, gotErr := comps[k].Solve(W, c, dsts[k])
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("tree %d step %d workers %d: dense err %v, run err %v",
						i, step, w, wantErr, gotErr)
				}
				if wantErr == nil && (!want.Equal(got) || want.String() != got.String()) {
					t.Fatalf("tree %d step %d workers %d: dense %v != run %v",
						i, step, w, want, got)
				}
				checkQoSTables(t, comps[k], dense)
			}
		}
		for _, s := range comps {
			s.SetWorkers(1)
		}
	}
	if broken == 0 {
		t.Fatal("no uncapped dense column breaks the monotone-row contract: the W cap is never exercised")
	}
}

// qosColumn writes column L of node j's dense table into col, reading
// infeasible cells, and with capped set the cells above W, as invalid.
func qosColumn(d *denseQoS, j, L int, capped bool, col []int32) {
	rows := d.rows(j)
	for r := range col {
		v := d.tabs[j][r*rows+L]
		if v >= qInf || capped && v > d.w {
			col[r] = invalid
		} else {
			col[r] = int32(v)
		}
	}
}

// uncappedBroken counts the dense table columns that break the
// monotone-row contract when the cells above W are kept.
func uncappedBroken(d *denseQoS) int {
	n := 0
	for j := range d.tabs {
		col := make([]int32, d.size[j]+1)
		for L := 0; L < d.rows(j); L++ {
			qosColumn(d, j, L, false, col)
			if _, ok := encodeRuns32(col, invalid, nil); !ok {
				n++
			}
		}
	}
	return n
}

// checkQoSTables compares every node's final run table of s with the
// dense reference's table capped at W: same dimensions, every capped
// dense column monotone, and the run rows decoding to exactly the
// capped dense columns.
func checkQoSTables(t *testing.T, s *QoSSolver, d *denseQoS) {
	t.Helper()
	for j := range d.tabs {
		tab := s.tabs[j]
		rows := d.rows(j)
		if int(tab.dimE) != rows-1 || int(tab.dimN) != d.size[j] {
			t.Fatalf("node %d: run table %dx%d, dense %dx%d", j, tab.dimE+1, tab.dimN, rows, d.size[j])
		}
		want := make([]int32, d.size[j]+1)
		got := make([]int32, len(want))
		for L := 0; L < rows; L++ {
			qosColumn(d, j, L, true, want)
			if _, ok := encodeRuns32(want, invalid, nil); !ok {
				t.Fatalf("node %d column %d breaks the monotone-row contract: %v", j, L, want)
			}
			decodeRuns32(tab.row(int32(L)), got, invalid)
			if !slices.Equal(got, want) {
				t.Fatalf("node %d column %d: runs decode to %v, capped dense %v", j, L, got, want)
			}
		}
	}
}
