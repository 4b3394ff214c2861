// The BenchmarkScale tier exercises the CSR tree layout and the
// subtree-parallel DP far beyond the paper's experiments: fat trees
// with sparse demand (tree.ScalePreset) at 10^4 nodes by default and at
// 10^5 and 10^6 nodes when REPLICATREE_SCALE is set (any non-empty
// value). The 10^4 size doubles as the CI smoke tier; the gated sizes
// are for acceptance runs and the README numbers:
//
//	REPLICATREE_SCALE=1 go test -run '^$' -bench Scale -benchtime=1x
//
// To select one gated size, anchor the sub-benchmark level — the
// pattern n=100000 also matches n=1000000 unanchored:
//
//	-bench 'ScaleColdSolve/n=100000$'
package replicatree_test

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"testing"

	"replicatree"
	"replicatree/internal/core"
	"replicatree/internal/cost"
	"replicatree/internal/exper"
	"replicatree/internal/tree"
)

// TestMain creates idle OS threads before any test or benchmark runs.
// The Go runtime starts a thread, allocating its m and g0 records
// (about 5.5 KB in 6 objects), whenever a woken goroutine finds no idle
// one. A wave-parallel solve can reach a new thread high-water mark in
// any run, and when that lands in a timed loop -benchmem charges the
// runtime's allocation to the solver, failing the zero-alloc gate at
// random. Threads are never released, so the timed loops reuse these.
func TestMain(m *testing.M) {
	spawnThreads(4 * runtime.GOMAXPROCS(0))
	os.Exit(m.Run())
}

// spawnThreads makes the runtime hold n threads at once: n goroutines
// each lock one and wait until all are locked, then unlock and exit,
// which parks the threads as idle.
func spawnThreads(n int) {
	var locked, exited sync.WaitGroup
	release := make(chan struct{})
	locked.Add(n)
	exited.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer exited.Done()
			runtime.LockOSThread()
			locked.Done()
			<-release
			runtime.UnlockOSThread()
		}()
	}
	locked.Wait()
	close(release)
	exited.Wait()
}

// scaleWorkers pairs the sequential baseline with a parallel run sized
// to the machine instead of a hardcoded 8, so constrained CI runners
// still measure a real speedup.
func scaleWorkers() []int {
	return []int{1, max(2, runtime.GOMAXPROCS(0))}
}

// scaleW is the server capacity of the scale tier. Larger than the
// paper's W=10 so the optimal server count stays in the thousands even
// at 10^6 nodes, while a breakpoint row holds at most W+1 runs.
const scaleW = 100

func scaleSizes() []int {
	sizes := []int{10_000}
	if os.Getenv("REPLICATREE_SCALE") != "" {
		sizes = append(sizes, 100_000, 1_000_000)
	}
	return sizes
}

func scaleTree(b *testing.B, n int) *tree.Tree {
	b.Helper()
	return tree.MustGenerate(tree.ScalePreset(n), replicatree.NewRNG(exper.DefaultSeed))
}

// scaleDriftNodes picks k client-bearing nodes spread across the tree,
// so a drift step dirties a fixed number of ancestor chains at every
// size (comparable per-step work, unlike percentage drift).
func scaleDriftNodes(t *tree.Tree, k int) []int {
	var nodes []int
	stride := t.N()/k + 1
	for j := 0; j < t.N() && len(nodes) < k; j++ {
		if len(t.Clients(j)) > 0 {
			nodes = append(nodes, j)
			j += stride - 1
		}
	}
	return nodes
}

// BenchmarkScaleColdSolve times a full (invalidated) MinCost solve of a
// mega tree, sequentially and wave-parallel. The workers=1 vs workers=8
// pair is the headline of the subtree-parallel DP: identical results
// (TestWaveParallelDeterminismMinCost), wall-clock divided.
func BenchmarkScaleColdSolve(b *testing.B) {
	for _, n := range scaleSizes() {
		t := scaleTree(b, n)
		for _, workers := range scaleWorkers() {
			b.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(b *testing.B) {
				solver := core.NewMinCostSolver(t)
				solver.SetWorkers(workers)
				defer solver.SetWorkers(1)
				dst := tree.ReplicasOf(t)
				if _, err := solver.SolveInto(nil, scaleW, cost.Simple{}, dst); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					solver.Invalidate()
					if _, err := solver.SolveInto(nil, scaleW, cost.Simple{}, dst); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(solver.Stats().MergeCellsScanned), "merge-cells/op")
			})
		}
	}
}

// BenchmarkScaleQoSColdSolve times a full (invalidated) QoS solve of a
// mega tree, sequentially and wave-parallel, under a 4-hop QoS bound on
// every client and a bandwidth of 50 on every link. Every node's own
// demand fits in scaleW, so equipping the client nodes always serves
// the instance. Each table row holds at most scaleW+1 runs, so the
// merge work follows the tree size and height, not the subtree widths.
func BenchmarkScaleQoSColdSolve(b *testing.B) {
	for _, n := range scaleSizes() {
		t := scaleTree(b, n)
		cons := tree.NewConstraints(t)
		cons.SetUniformQoS(t, 4)
		cons.SetUniformBandwidth(50)
		for _, workers := range scaleWorkers() {
			b.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(b *testing.B) {
				solver := core.NewQoSSolver(t)
				solver.SetWorkers(workers)
				defer solver.SetWorkers(1)
				dst := tree.ReplicasOf(t)
				if _, err := solver.Solve(scaleW, cons, dst); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					solver.Invalidate()
					if _, err := solver.Solve(scaleW, cons, dst); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(solver.Stats().MergeCellsScanned), "merge-cells/op")
			})
		}
	}
}

// BenchmarkScaleDriftStep times one incremental re-solve after 8
// spread-out demand edits. The dirty ancestor chains are a vanishing
// fraction of a mega tree, so a step costs a small fraction of
// BenchmarkScaleColdSolve at the same size — re-merging the
// subtree-wide tables near the root, which the breakpoint kernel
// prices by run count rather than row width.
func BenchmarkScaleDriftStep(b *testing.B) {
	for _, n := range scaleSizes() {
		t := scaleTree(b, n)
		nodes := scaleDriftNodes(t, 8)
		for _, workers := range scaleWorkers() {
			b.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(b *testing.B) {
				solver := core.NewMinCostSolver(t)
				solver.SetWorkers(workers)
				defer solver.SetWorkers(1)
				dst := tree.ReplicasOf(t)
				for warm := 0; warm < 2; warm++ {
					for _, j := range nodes {
						t.SetDemand(j, 0, 1+warm%2)
					}
					if _, err := solver.SolveInto(nil, scaleW, cost.Simple{}, dst); err != nil {
						b.Fatal(err)
					}
				}
				cells := 0
				b.ResetTimer()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for _, j := range nodes {
						t.SetDemand(j, 0, 1+i%2)
					}
					if _, err := solver.SolveInto(nil, scaleW, cost.Simple{}, dst); err != nil {
						b.Fatal(err)
					}
					cells += solver.Stats().MergeCellsScanned
				}
				b.ReportMetric(float64(cells)/float64(b.N), "merge-cells/op")
			})
		}
	}
}

// BenchmarkScaleFlowEval times one full flow evaluation (closest
// policy) of a greedy placement on a mega tree — the pure CSR traversal
// cost, no DP: O(N) over the flat child and client spans.
func BenchmarkScaleFlowEval(b *testing.B) {
	for _, n := range scaleSizes() {
		t := scaleTree(b, n)
		r, err := replicatree.GreedyMinReplicas(t, scaleW)
		if err != nil {
			b.Fatal(err)
		}
		e := tree.NewEngine(t)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			unserved := 0
			for i := 0; i < b.N; i++ {
				res := e.EvalUniform(r, tree.PolicyClosest, scaleW)
				unserved += res.Unserved
			}
			if unserved != 0 {
				b.Fatalf("placement invalid: %d unserved", unserved)
			}
		})
	}
}

// BenchmarkCompressedMergeSteadyState times sequential cold re-solves
// on the 10^4-node scale tree, whose MinCost merges all run on
// breakpoint rows (the benchmark fails if none did). Paired with the
// CI zero-alloc gate it also proves the run kernel's scratch and the
// retained step tables are fully reused in steady state.
func BenchmarkCompressedMergeSteadyState(b *testing.B) {
	t := scaleTree(b, 10_000)
	solver := core.NewMinCostSolver(t)
	dst := tree.ReplicasOf(t)
	for warm := 0; warm < 2; warm++ {
		solver.Invalidate()
		if _, err := solver.SolveInto(nil, scaleW, cost.Simple{}, dst); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		solver.Invalidate()
		if _, err := solver.SolveInto(nil, scaleW, cost.Simple{}, dst); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if solver.Stats().RowsCompressed == 0 {
		b.Fatal("the compressed merge kernel never engaged")
	}
	b.ReportMetric(float64(solver.Stats().MergeCellsScanned), "merge-cells/op")
}

// BenchmarkChainDriftStep times one tick of the paper's update
// strategy on the chain-1e4 instance of perfbench (ScalePreset(10^4),
// seed 2011, W=100, Create 0.1, Delete 0.01): 8 spread-out demand
// edits, then an incremental re-solve whose pre-existing set is the
// previous tick's placement, so the tables carry a live reused-server
// axis. The edits alternate between two demand values, so after the
// warm-up the ticks revisit the same instances and the solver's
// retained buffers stop growing; the CI zero-alloc gate holds it to
// 0 allocs/op.
func BenchmarkChainDriftStep(b *testing.B) {
	t := tree.MustGenerate(tree.ScalePreset(10_000), replicatree.NewRNG(2011))
	nodes := scaleDriftNodes(t, 8)
	c := cost.Simple{Create: 0.1, Delete: 0.01}
	for _, workers := range scaleWorkers() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			solver := core.NewMinCostSolver(t)
			solver.SetWorkers(workers)
			defer solver.SetWorkers(1)
			existing, dst := tree.ReplicasOf(t), tree.ReplicasOf(t)
			cells := 0
			tick := func(i int) {
				for _, j := range nodes {
					t.SetDemand(j, 0, 1+i%2)
				}
				if _, err := solver.SolveInto(existing, scaleW, c, dst); err != nil {
					b.Fatal(err)
				}
				existing, dst = dst, existing
				cells += solver.Stats().MergeCellsScanned
			}
			for i := 0; i < 8; i++ {
				tick(i)
			}
			cells = 0
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tick(i)
			}
			b.ReportMetric(float64(cells)/float64(b.N), "merge-cells/op")
		})
	}
}

// BenchmarkParallelDPSteadyState is the wave-parallel counterpart of
// the *SolverReuse benchmarks: full table rebuilds through solvers
// whose bottom-up pass fans across a persistent pool of 4 workers, for
// each of the three DPs. Steady state must stay allocation-free — the
// pool parks on pre-allocated channels, each worker owns a retained
// arena, and the driver grows every worker's arena to the largest node
// any worker drew — and the CI zero-alloc gate enforces it.
func BenchmarkParallelDPSteadyState(b *testing.B) {
	const workers, warm = 4, 3
	steady := func(b *testing.B, solve func() error) {
		for i := 0; i < warm; i++ {
			if err := solve(); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := solve(); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("mincost", func(b *testing.B) {
		t := scaleTree(b, 10_000)
		solver := core.NewMinCostSolver(t)
		solver.SetWorkers(workers)
		defer solver.SetWorkers(1)
		dst := tree.ReplicasOf(t)
		steady(b, func() error {
			solver.Invalidate()
			_, err := solver.SolveInto(nil, scaleW, cost.Simple{}, dst)
			return err
		})
		b.ReportMetric(float64(solver.Stats().MergeCellsScanned), "merge-cells/op")
	})

	b.Run("qos", func(b *testing.B) {
		t := tree.MustGenerate(tree.FatConfig(300), replicatree.NewRNG(exper.DefaultSeed))
		cons := tree.NewConstraints(t)
		cons.SetUniformQoS(t, 4)
		solver := core.NewQoSSolver(t)
		solver.SetWorkers(workers)
		defer solver.SetWorkers(1)
		dst := tree.ReplicasOf(t)
		steady(b, func() error {
			solver.Invalidate()
			_, err := solver.Solve(10, cons, dst)
			return err
		})
		b.ReportMetric(float64(solver.Stats().MergeCellsScanned), "merge-cells/op")
	})

	b.Run("power", func(b *testing.B) {
		src := replicatree.NewRNG(4)
		t := tree.MustGenerate(tree.PowerConfig(50), src)
		existing, _ := tree.RandomReplicas(t, 5, 2, src)
		dp := core.NewPowerDP(t)
		dp.SetWorkers(workers)
		defer dp.SetWorkers(1)
		prob := core.PowerProblem{Existing: existing, Power: exper.Exp3Power(), Cost: exper.Exp3Cost()}
		dst := tree.ReplicasOf(t)
		steady(b, func() error {
			dp.Invalidate()
			solver, err := dp.Solve(prob)
			if err == nil {
				solver.BestInto(math.Inf(1), dst)
			}
			return err
		})
		b.ReportMetric(float64(dp.Stats().MergeCellsScanned), "merge-cells/op")
	})
}
