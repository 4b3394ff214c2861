package core

import (
	"math"
	"slices"
	"testing"

	"replicatree/internal/cost"
	"replicatree/internal/rng"
	"replicatree/internal/tree"
)

// These tests prove the compression contract: solves running the
// breakpoint-compressed merge kernels must be byte-identical — same
// placements, fronts and costs, same tie-breaks — to solves running
// the dense kernels, over cold solves and drift sequences at every
// worker count. MinCost and QoS run on breakpoints only and are checked
// against test-only dense references. For the power DP the activation
// width is forced down to 2 so the small differential trees exercise
// the compressed path in ordinary CI runs (the default 64 only engages
// on at-scale tables), and forced high to pin the reference to the
// dense kernel.

const (
	forceCompressed = 2
	forceDense      = 1 << 30
)

// setDenseWidth swaps the compression activation width, restoring it
// when the test finishes.
func setDenseWidth(t *testing.T, w int) func(int) {
	saved := minDenseWidth
	t.Cleanup(func() { minDenseWidth = saved })
	set := func(w int) { minDenseWidth = w }
	set(w)
	return set
}

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

func TestPowerCompressedMatchesDense(t *testing.T) {
	set := setDenseWidth(t, forceDense)
	pm := powerModel2()
	cm := cost.UniformModal(2, 0.1, 0.01, 0.001)
	compressedRows := 0
	for i := 0; i < reuseTreeCount(t)/2; i++ {
		src := rng.Derive(227, i)
		tr := tree.MustGenerate(tree.PowerConfig(18+i%10), src)
		dense := NewPowerDP(tr)
		workers := []int{1, 2, 8}
		comps := make([]*PowerDP, len(workers))
		dsts := make([]*tree.Replicas, len(workers))
		for k, w := range workers {
			comps[k] = NewPowerDP(tr)
			comps[k].SetWorkers(w)
			dsts[k] = tree.ReplicasOf(tr)
		}
		existing := tree.ReplicasOf(tr)
		for step := 0; step < 8; step++ {
			driftClients(tr, src.IntN(3), src)
			if step == 5 && tr.N() > 1 {
				// A pre-existing server disables compression; the solvers
				// must fall back to the dense kernel (and replay across
				// the comp/dense regime change) without diverging.
				existing.Set(1+src.IntN(tr.N()-1), uint8(1+src.IntN(2)))
			}
			if step == 7 {
				existing.Reset() // back to the compressed regime
			}
			prob := PowerProblem{Tree: tr, Existing: existing, Power: pm, Cost: cm}
			set(forceDense)
			want, wantErr := dense.Solve(prob)
			var wantOpt *PowerResult
			var wf []ParetoPoint
			if wantErr == nil {
				wf = want.Front()
				wantOpt = want.MinPower()
			}
			set(forceCompressed)
			for k, w := range workers {
				got, gotErr := comps[k].Solve(prob)
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("tree %d step %d workers %d: dense err %v, compressed err %v",
						i, step, w, wantErr, gotErr)
				}
				if wantErr != nil {
					continue
				}
				gf := got.Front()
				if len(wf) != len(gf) {
					t.Fatalf("tree %d step %d workers %d: front sizes %d != %d", i, step, w, len(wf), len(gf))
				}
				for q := range wf {
					if wf[q] != gf[q] {
						t.Fatalf("tree %d step %d workers %d: front[%d] %v != %v", i, step, w, q, wf[q], gf[q])
					}
				}
				gotOpt, ok := got.BestInto(math.Inf(1), dsts[k])
				if !ok || !wantOpt.Placement.Equal(gotOpt.Placement) ||
					wantOpt.Cost != gotOpt.Cost || wantOpt.Power != gotOpt.Power {
					t.Fatalf("tree %d step %d workers %d: dense optimum %v != compressed %v",
						i, step, w, wantOpt.Placement, gotOpt.Placement)
				}
				// A mid-front bound exercises lazy provenance on a
				// different root cell than the min-power extreme.
				if len(wf) > 1 {
					bound := wf[len(wf)/2].Cost
					wb, _ := want.Best(bound)
					gb, ok := got.BestInto(bound, dsts[k])
					if !ok || !wb.Placement.Equal(gb.Placement) || wb.Power != gb.Power {
						t.Fatalf("tree %d step %d workers %d: bounded optimum diverges", i, step, w)
					}
				}
				compressedRows += comps[k].Stats().RowsCompressed
			}
		}
	}
	if compressedRows == 0 {
		t.Fatal("forced activation width never engaged the compressed kernel")
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
