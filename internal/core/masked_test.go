package core

import (
	"errors"
	"testing"

	"replicatree/internal/cost"
	"replicatree/internal/failure"
	"replicatree/internal/rng"
	"replicatree/internal/tree"
)

// These tests pin the masked-solve contract (MinCostSolver.SetMask): a
// warm solver whose mask drifts one crash or recovery at a time must
// return byte-for-byte what a cold solver handed the same mask returns,
// the placement must avoid every down node yet stay valid for the full
// (unmasked) demand, and a single mask flip must re-solve only the
// flipped node's ancestor chain.

// maskedSeqCount returns the number of random crash/recover sequences
// the differential runs; the acceptance bar is at least 50.
func maskedSeqCount(t *testing.T) int {
	if testing.Short() {
		return 50
	}
	return 80
}

// crashStep flips one random node of the mask (crash if up, recover if
// down), avoiding the root with probability 7/8 so most sequences stay
// feasible while root-down infeasibility is still exercised.
func crashStep(m *failure.Mask, n int, src *rng.Source) int {
	j := src.IntN(n)
	if j == 0 && n > 1 && !src.Bool(0.125) {
		j = 1 + src.IntN(n-1)
	}
	if m.NodeUp(j) {
		m.CrashNode(j)
	} else {
		m.RecoverNode(j)
	}
	return j
}

// checkMaskedPlacement verifies the masked solver's contract on one
// solution: no replica on a down node, and the placement serves the
// full demand within W under plain (unmasked) closest routing — which
// is exactly the load model the masked DP accounts, so the placement
// stays valid when the outage ends.
func checkMaskedPlacement(t *testing.T, tr *tree.Tree, m *failure.Mask, r *tree.Replicas, W int) {
	t.Helper()
	for j := 0; j < tr.N(); j++ {
		if r.Has(j) && !m.NodeUp(j) {
			t.Fatalf("replica on down node %d", j)
		}
	}
	e := tree.NewEngine(tr)
	res := e.EvalUniform(r, tree.PolicyClosest, W)
	if res.Unserved != 0 {
		t.Fatalf("masked placement leaves %d unserved under unmasked routing", res.Unserved)
	}
	for j, l := range res.Loads {
		if l > W {
			t.Fatalf("masked placement overloads node %d: %d > W=%d", j, l, W)
		}
	}
}

// TestMaskedMinCostMatchesColdOverCrashSequences is the acceptance
// differential: over at least 50 random crash/recover sequences, an
// incremental masked re-solve after every event must byte-match a cold
// solve of the identically masked instance, with demand drift and
// repair-style pre-existing chaining mixed in.
func TestMaskedMinCostMatchesColdOverCrashSequences(t *testing.T) {
	c := cost.Simple{Create: 0.1, Delete: 0.01}
	W := 10
	for i := 0; i < maskedSeqCount(t); i++ {
		src := rng.Derive(909, i)
		tr := tree.MustGenerate(reuseGen(i), src)
		n := tr.N()
		mask := failure.NewMask(n)
		warm := NewMinCostSolver(tr)
		warm.SetMask(mask)
		existing := tree.ReplicasOf(tr)
		dst := tree.ReplicasOf(tr)
		for step := 0; step < 8; step++ {
			crashStep(mask, n, src)
			if src.Bool(0.3) {
				driftClients(tr, 1+src.IntN(3), src)
			}
			got, gotErr := warm.SolveInto(existing, W, c, dst)

			cold := NewMinCostSolver(tr)
			cold.SetMask(mask)
			want, wantErr := cold.Solve(existing, W, c)

			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("seq %d step %d: cold err %v, incremental err %v", i, step, wantErr, gotErr)
			}
			if wantErr != nil {
				if !errors.Is(gotErr, ErrInfeasible) {
					t.Fatalf("seq %d step %d: non-infeasibility error %v", i, step, gotErr)
				}
				continue
			}
			if !want.Placement.Equal(got.Placement) || want.Cost != got.Cost ||
				want.Servers != got.Servers || want.Reused != got.Reused || want.New != got.New {
				t.Fatalf("seq %d step %d: cold %v (cost %v) != incremental %v (cost %v)",
					i, step, want.Placement, want.Cost, got.Placement, got.Cost)
			}
			checkMaskedPlacement(t, tr, mask, got.Placement, W)
			// Repair chaining: the next solve reuses this solution as its
			// pre-existing set, like netsim's online repair loop does.
			existing, dst = got.Placement, existing
		}
	}
}

// TestMaskedMinCostWorkersMatchCold runs chained masked solves through
// one wave-parallel solver and checks each against a cold sequential
// solver handed the same mask: byte-identical placements and costs at
// every step, whether the mask leaves the instance feasible or not.
func TestMaskedMinCostWorkersMatchCold(t *testing.T) {
	c := cost.Simple{Create: 0.1, Delete: 0.01}
	W := 10
	for i := 0; i < 25; i++ {
		src := rng.Derive(911, i)
		tr := tree.MustGenerate(reuseGen(i), src)
		n := tr.N()
		mask := failure.NewMask(n)

		warm := NewMinCostSolver(tr)
		warm.SetWorkers(4)
		warm.SetMask(mask)
		existing := tree.ReplicasOf(tr)
		for step := 0; step < 6; step++ {
			crashStep(mask, n, src)
			got, gotErr := warm.Solve(existing, W, c)

			cold := NewMinCostSolver(tr)
			cold.SetMask(mask)
			want, wantErr := cold.Solve(existing, W, c)

			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("seq %d step %d: cold err %v, warm err %v", i, step, wantErr, gotErr)
			}
			if wantErr != nil {
				continue
			}
			if !want.Placement.Equal(got.Placement) || want.Cost != got.Cost {
				t.Fatalf("seq %d step %d: cold %v (cost %v) != warm %v (cost %v)",
					i, step, want.Placement, want.Cost, got.Placement, got.Cost)
			}
			existing = got.Placement
		}
		warm.SetWorkers(1)
	}
}

// TestMaskedSolveRecomputesOnlyCrashChain pins the repair-latency
// bound: one crash (or recovery) dirties exactly the failed node's
// parent chain, so the incremental re-solve touches O(depth) tables.
func TestMaskedSolveRecomputesOnlyCrashChain(t *testing.T) {
	src := rng.New(77)
	tr := tree.MustGenerate(tree.FatConfig(120), src)
	mask := failure.NewMask(tr.N())
	solver := NewMinCostSolver(tr)
	solver.SetMask(mask)
	existing := tree.ReplicasOf(tr)
	c := cost.Simple{Create: 0.1, Delete: 0.01}
	if _, err := solver.SolveInto(existing, 10, c, nil); err != nil {
		t.Fatal(err)
	}
	if st := solver.Stats(); st.MaskedNodes != 0 {
		t.Fatalf("all-up solve reports %d masked nodes", st.MaskedNodes)
	}

	for trial := 0; trial < 20; trial++ {
		j := 1 + src.IntN(tr.N()-1)
		if mask.NodeUp(j) {
			mask.CrashNode(j)
		} else {
			mask.RecoverNode(j)
		}
		_, err := solver.SolveInto(existing, 10, c, nil)
		st := solver.Stats()
		if bound := chainBound(tr, []int{tr.Parent(j)}); st.Recomputed > bound {
			t.Fatalf("trial %d: flip of node %d recomputed %d nodes, chain bound is %d",
				trial, j, st.Recomputed, bound)
		}
		if st.MaskedNodes != mask.DownNodes() {
			t.Fatalf("trial %d: stats report %d masked nodes, mask holds %d down",
				trial, st.MaskedNodes, mask.DownNodes())
		}
		if err != nil {
			// The accumulated outages can make the instance infeasible;
			// the tables are still committed and the chain bound above
			// still held, so revert the flip (same chain, same bound on
			// the next solve) and keep going.
			if !errors.Is(err, ErrInfeasible) {
				t.Fatal(err)
			}
			if mask.NodeUp(j) {
				mask.CrashNode(j)
			} else {
				mask.RecoverNode(j)
			}
			if _, err := solver.SolveInto(existing, 10, c, nil); err != nil {
				t.Fatal(err)
			}
			if st := solver.Stats(); st.Recomputed > chainBound(tr, []int{tr.Parent(j)}) {
				t.Fatalf("trial %d: revert of node %d exceeded the chain bound", trial, j)
			}
		}
	}

	// A no-op solve under an unchanged mask reuses every table.
	if _, err := solver.SolveInto(existing, 10, c, nil); err != nil {
		t.Fatal(err)
	}
	if st := solver.Stats(); st.Recomputed != 0 {
		t.Fatalf("no-op masked solve recomputed %d nodes, want 0", st.Recomputed)
	}
}

// TestMaskedRootDownInfeasible pins the degradation edge: when demand
// must escape to the root and the root is down, the solve reports
// ErrInfeasible — and the failed solve leaves the solver's tables
// consistent, so the re-solve after recovery byte-matches a cold one.
func TestMaskedRootDownInfeasible(t *testing.T) {
	b := tree.NewBuilder()
	b.AddClient(b.Root(), 5)
	tr := b.MustBuild()

	mask := failure.NewMask(1)
	mask.CrashNode(0)
	solver := NewMinCostSolver(tr)
	solver.SetMask(mask)
	if _, err := solver.Solve(nil, 10, cost.Simple{}); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("root-down solve: got %v, want ErrInfeasible", err)
	}

	mask.RecoverNode(0)
	got, err := solver.Solve(nil, 10, cost.Simple{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := MinCost(tr, nil, 10, cost.Simple{})
	if err != nil {
		t.Fatal(err)
	}
	if !want.Placement.Equal(got.Placement) || want.Cost != got.Cost {
		t.Fatalf("retry after infeasible: got %v (cost %v), want %v (cost %v)",
			got.Placement, got.Cost, want.Placement, want.Cost)
	}
}

// TestMaskRejectsUndersizedView pins the guard against a mask whose
// sized view cannot cover the tree (indexing it would panic mid-solve).
func TestMaskRejectsUndersizedView(t *testing.T) {
	src := rng.New(5)
	tr := tree.MustGenerate(tree.FatConfig(10), src)
	solver := NewMinCostSolver(tr)
	solver.SetMask(failure.NewMask(3))
	if _, err := solver.Solve(nil, 10, cost.Simple{}); err == nil {
		t.Fatal("want error for a 3-node mask on a 10-node tree")
	}
}

// TestMinCostRetryAfterErrorMatchesCold is the stale-table regression
// guard for MinCostSolver: a solve that fails input validation must not
// disturb the retained tables, so the next valid solve still runs
// incrementally (recomputing nothing when nothing changed) and
// byte-matches a cold solver.
func TestMinCostRetryAfterErrorMatchesCold(t *testing.T) {
	src := rng.New(31)
	tr := tree.MustGenerate(tree.HighConfig(60), src)
	solver := NewMinCostSolver(tr)
	c := cost.Simple{Create: 0.1, Delete: 0.01}
	if _, err := solver.Solve(nil, 10, c); err != nil {
		t.Fatal(err)
	}
	if _, err := solver.Solve(nil, 0, c); err == nil {
		t.Fatal("want error for W=0")
	}
	if _, err := solver.Solve(nil, 10, cost.Simple{Create: -1}); err == nil {
		t.Fatal("want error for a negative price")
	}
	got, err := solver.Solve(nil, 10, c)
	if err != nil {
		t.Fatal(err)
	}
	if st := solver.Stats(); st.Recomputed != 0 {
		t.Fatalf("retry after rejected calls recomputed %d nodes, want 0", st.Recomputed)
	}
	want, err := MinCost(tr, nil, 10, c)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Placement.Equal(got.Placement) || want.Cost != got.Cost {
		t.Fatal("retry after rejected calls diverged from a cold solve")
	}
}

// TestQoSRetryAfterInfeasibleMatchesCold is the same guard for
// QoSSolver, through its only post-recompute failure path: a demand
// spike beyond W makes the solve infeasible after the tables were
// already rebuilt; reverting the spike must yield exactly a cold
// solver's placement again.
func TestQoSRetryAfterInfeasibleMatchesCold(t *testing.T) {
	src := rng.New(32)
	tr := tree.MustGenerate(tree.HighConfig(60), src)
	var spikeNode int
	for j := 0; j < tr.N(); j++ {
		if len(tr.Clients(j)) > 0 {
			spikeNode = j
			break
		}
	}
	old := tr.Clients(spikeNode)[0]

	solver := NewQoSSolver(tr)
	first, err := solver.Solve(10, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	firstCopy := first.Clone()

	tr.SetDemand(spikeNode, 0, 100) // exceeds W=10: no placement serves it
	if _, err := solver.Solve(10, nil, nil); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("demand spike: got %v, want ErrInfeasible", err)
	}

	tr.SetDemand(spikeNode, 0, old)
	got, err := solver.Solve(10, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewQoSSolver(tr).Solve(10, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) || !got.Equal(firstCopy) {
		t.Fatalf("retry after infeasible: got %v, cold %v, original %v", got, want, firstCopy)
	}
	// Only the spiked node's chain may have been recomputed on retry.
	if st, bound := solver.Stats(), chainBound(tr, []int{spikeNode}); st.Recomputed > bound {
		t.Fatalf("retry recomputed %d nodes, chain bound is %d", st.Recomputed, bound)
	}
}
