package core

import (
	"fmt"
	"slices"
	"testing"

	"replicatree/internal/cost"
	"replicatree/internal/power"
	"replicatree/internal/rng"
	"replicatree/internal/tree"
)

// samePlacement reports whether two replica sets agree node by node
// (membership and mode).
func samePlacement(n int, a, b *tree.Replicas) bool {
	for j := 0; j < n; j++ {
		if a.Has(j) != b.Has(j) || a.Mode(j) != b.Mode(j) {
			return false
		}
	}
	return true
}

// driftSome flips a few client demands, alternating values with step so
// consecutive calls always change something.
func driftSome(t *tree.Tree, step int) {
	hit := 0
	for j := 0; j < t.N() && hit < 5; j++ {
		if len(t.Clients(j)) > 0 {
			t.SetDemand(j, 0, 1+(j+step)%3)
			hit++
		}
	}
}

// TestWaveParallelDeterminismMinCost checks the subtree-parallel
// MinCost pass against the sequential one: identical costs, server
// counts and placements (including tie-breaks) for every worker count,
// on a cold solve and across incremental drift steps. Run with -race to
// also exercise the scheduler's happens-before edges.
func TestWaveParallelDeterminismMinCost(t *testing.T) {
	src := rng.New(90)
	tr := tree.MustGenerate(tree.FatConfig(300), src)
	existing, err := tree.RandomReplicas(tr, 60, 1, src)
	if err != nil {
		t.Fatal(err)
	}
	c := cost.Simple{Create: 0.1, Delete: 0.01}

	seq := NewMinCostSolver(tr)
	dstSeq := tree.ReplicasOf(tr)
	for _, workers := range []int{2, 8} {
		par := NewMinCostSolver(tr)
		par.SetWorkers(workers)
		dstPar := tree.ReplicasOf(tr)
		for step := 0; step < 6; step++ {
			if step > 0 {
				driftSome(tr, step)
			}
			want, err := seq.SolveInto(existing, 10, c, dstSeq)
			if err != nil {
				t.Fatal(err)
			}
			got, err := par.SolveInto(existing, 10, c, dstPar)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cost != want.Cost || got.Servers != want.Servers || got.Reused != want.Reused {
				t.Fatalf("workers=%d step=%d: got (%v, %d, %d), want (%v, %d, %d)",
					workers, step, got.Cost, got.Servers, got.Reused, want.Cost, want.Servers, want.Reused)
			}
			if !samePlacement(tr.N(), dstPar, dstSeq) {
				t.Fatalf("workers=%d step=%d: placements differ", workers, step)
			}
			// After the cold step both solvers share the same cache
			// state, so incremental steps must recompute identically.
			if pr, sr := par.Stats().Recomputed, seq.Stats().Recomputed; step > 0 && pr != sr {
				t.Fatalf("workers=%d step=%d: recomputed %d, want %d", workers, step, pr, sr)
			}
		}
		// Switching back to one worker tears the pool down and must
		// keep solving correctly.
		par.SetWorkers(1)
		driftSome(tr, 99)
		want, err := seq.SolveInto(existing, 10, c, dstSeq)
		if err != nil {
			t.Fatal(err)
		}
		got, err := par.SolveInto(existing, 10, c, dstPar)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cost != want.Cost || !samePlacement(tr.N(), dstPar, dstSeq) {
			t.Fatalf("workers=%d after reverting to 1: solutions differ", workers)
		}
	}
}

// TestWaveParallelDeterminismQoS is the MinCost determinism check for
// the constrained-counting solver.
func TestWaveParallelDeterminismQoS(t *testing.T) {
	tr := tree.MustGenerate(tree.FatConfig(300), rng.New(91))
	cons := tree.NewConstraints(tr)
	cons.SetUniformQoS(tr, 4)

	seq := NewQoSSolver(tr)
	dstSeq := tree.ReplicasOf(tr)
	for _, workers := range []int{2, 8} {
		par := NewQoSSolver(tr)
		par.SetWorkers(workers)
		dstPar := tree.ReplicasOf(tr)
		for step := 0; step < 6; step++ {
			if step > 0 {
				driftSome(tr, step)
			}
			want, err := seq.Solve(10, cons, dstSeq)
			if err != nil {
				t.Fatal(err)
			}
			got, err := par.Solve(10, cons, dstPar)
			if err != nil {
				t.Fatal(err)
			}
			if got.Count() != want.Count() {
				t.Fatalf("workers=%d step=%d: count %d, want %d", workers, step, got.Count(), want.Count())
			}
			if !samePlacement(tr.N(), got, want) {
				t.Fatalf("workers=%d step=%d: placements differ", workers, step)
			}
		}
	}
}

// checkPowerWaves solves prob on tr with a sequential PowerDP and with
// wave-parallel ones at SetWorkers ∈ {2, 8}, steps times (calling
// drift before every solve after the first), and fails unless every
// solve yields the same front and the same reconstruction at every
// front point. The root fold and the root scan stay sequential either
// way; the wave scheduler covers the rest of the tree.
func checkPowerWaves(t *testing.T, tr *tree.Tree, prob PowerProblem, steps int, drift func(step int)) {
	t.Helper()
	seq := NewPowerDP(tr)
	workers := []int{2, 8}
	pars := make([]*PowerDP, len(workers))
	for i, w := range workers {
		dp := NewPowerDP(tr)
		dp.SetWorkers(w)
		t.Cleanup(func() { dp.SetWorkers(1) })
		pars[i] = dp
	}
	for step := 0; step < steps; step++ {
		if step > 0 {
			drift(step)
		}
		want, err := seq.Solve(prob)
		if err != nil {
			t.Fatal(err)
		}
		for i, dp := range pars {
			got, err := dp.Solve(prob)
			if err != nil {
				t.Fatalf("workers=%d step=%d: %v", workers[i], step, err)
			}
			frontsEqual(t, fmt.Sprintf("workers=%d step=%d", workers[i], step), want, got)
		}
	}
}

// TestWaveParallelDeterminismPower checks the power DP: byte-identical
// Pareto fronts and identical reconstructions for every worker count,
// cold and across drift steps.
func TestWaveParallelDeterminismPower(t *testing.T) {
	src := rng.New(92)
	tr := tree.MustGenerate(tree.PowerConfig(40), src)
	existing, err := tree.RandomReplicas(tr, 5, 2, src)
	if err != nil {
		t.Fatal(err)
	}
	pm := power.MustNew([]int{5, 10}, 10, 2)
	prob := PowerProblem{Existing: existing, Power: pm, Cost: cost.UniformModal(2, 0.5, 0.25, 0.25)}
	checkPowerWaves(t, tr, prob, 6, func(step int) { driftSome(tr, step) })
}

// TestParallelPowerMatchesSequential runs the wave-parallel power DP
// on 60-node trees with pre-existing servers, whose tables are large
// enough that every wave dispatches real merge work.
func TestParallelPowerMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel-vs-sequential comparison is slow")
	}
	pm := power.MustNew([]int{5, 10}, 12.5, 3)
	cm := cost.UniformModal(2, 0.1, 0.01, 0.001)
	for seed := uint64(0); seed < 3; seed++ {
		src := rng.Derive(seed, 80)
		tr := tree.MustGenerate(tree.PowerConfig(60), src)
		ex, _ := tree.RandomReplicas(tr, 6, 2, src)
		checkPowerWaves(t, tr, PowerProblem{Existing: ex, Power: pm, Cost: cm}, 1, nil)
	}
}

// TestParallelPowerSmallInstances covers trees whose waves are mostly
// thinner than the pool's dispatch threshold, so nearly every node
// runs inline on worker 0.
func TestParallelPowerSmallInstances(t *testing.T) {
	pm := power.MustNew([]int{5, 10}, 12.5, 3)
	cm := cost.UniformModal(2, 0.1, 0.01, 0.001)
	src := rng.New(81)
	tr := tree.MustGenerate(tree.PowerConfig(15), src)
	checkPowerWaves(t, tr, PowerProblem{Power: pm, Cost: cm}, 3, func(int) { driftClients(tr, 2, src) })
}

// TestParallelPowerWideStar runs the star topology with pre-existing
// servers: one wide leaf wave fanned across the pool, then a single
// giant root fold.
func TestParallelPowerWideStar(t *testing.T) {
	if testing.Short() {
		t.Skip("wide star comparison is slow")
	}
	b := tree.NewBuilder()
	src := rng.New(83)
	for i := 1; i < 120; i++ {
		leaf := b.AddNode(b.Root())
		b.AddClient(leaf, src.Between(1, 5))
	}
	tr := b.MustBuild()
	pm := power.MustNew([]int{5, 10}, 12.5, 3)
	cm := cost.UniformModal(2, 0.1, 0.01, 0.001)
	ex, _ := tree.RandomReplicas(tr, 4, 2, src)
	checkPowerWaves(t, tr, PowerProblem{Existing: ex, Power: pm, Cost: cm}, 1, nil)
}

// TestMinCostWithPreWorkersMatchDense solves a 300-node instance with
// 60 pre-existing servers through solvers at one and four workers,
// cold and across drift steps, and checks both against the dense
// reference: same cost, same server split, same placement.
func TestMinCostWithPreWorkersMatchDense(t *testing.T) {
	src := rng.New(93)
	tr := tree.MustGenerate(tree.FatConfig(300), src)
	existing, err := tree.RandomReplicas(tr, 60, 1, src)
	if err != nil {
		t.Fatal(err)
	}
	c := cost.Simple{Create: 0.1, Delete: 0.01}
	solvers := []*MinCostSolver{NewMinCostSolver(tr), NewMinCostSolver(tr)}
	solvers[1].SetWorkers(4)
	defer solvers[1].SetWorkers(1)
	dst := tree.ReplicasOf(tr)
	for step := 0; step < 4; step++ {
		if step > 0 {
			driftSome(tr, step)
		}
		_, want, err := solveDense(tr, existing, nil, 10, c)
		if err != nil {
			t.Fatal(err)
		}
		for k, s := range solvers {
			got, err := s.SolveInto(existing, 10, c, dst)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cost != want.Cost || got.Servers != want.Servers || got.Reused != want.Reused {
				t.Fatalf("step=%d solver %d: (%v, %d, %d), dense (%v, %d, %d)",
					step, k, got.Cost, got.Servers, got.Reused, want.Cost, want.Servers, want.Reused)
			}
			if !samePlacement(tr.N(), dst, want.Placement) {
				t.Fatalf("step=%d solver %d: placement differs from the dense reference", step, k)
			}
		}
	}
}

// TestPowerRootMergeRetainedNaturalOrder checks the retained root fold:
// the root folds its children in child order, so a drift under the
// last root child re-merges one fold step and keeps the other K-1, a
// drift under the first re-merges all K, and an untouched re-solve
// keeps every step, while the front stays byte-identical to a cold
// solver's.
func TestPowerRootMergeRetainedNaturalOrder(t *testing.T) {
	b := tree.NewBuilder()
	var grand []int
	for i := 0; i < 4; i++ {
		c := b.AddNode(b.Root())
		g := b.AddNode(c)
		b.AddClient(g, 2+i)
		grand = append(grand, g)
	}
	tr := b.MustBuild()
	pm := power.MustNew([]int{5, 12}, 10, 2)
	prob := PowerProblem{Power: pm, Cost: freeCost(2)}
	const K = 4

	dp := NewPowerDP(tr)
	retained := func(want int) *PowerSolver {
		t.Helper()
		s, err := dp.Solve(prob)
		if err != nil {
			t.Fatal(err)
		}
		if got := dp.Stats().RootMergeRetained; got != want {
			t.Fatalf("RootMergeRetained = %d, want %d", got, want)
		}
		return s
	}
	retained(0)
	tr.SetDemand(grand[K-1], 0, 7)
	retained(K - 1)
	tr.SetDemand(grand[0], 0, 4)
	retained(0)
	s := retained(K)

	fresh, err := NewPowerDP(tr).Solve(prob)
	if err != nil {
		t.Fatal(err)
	}
	if want, got := fresh.Front(), s.Front(); !slices.Equal(want, got) {
		t.Fatalf("front %v, cold %v", got, want)
	}
	want, got := fresh.MinPower(), s.MinPower()
	if got.Cost != want.Cost || got.Power != want.Power || !got.Placement.Equal(want.Placement) {
		t.Fatalf("best (%v, %v) %v, cold (%v, %v) %v", got.Cost, got.Power, got.Placement,
			want.Cost, want.Power, want.Placement)
	}
}
