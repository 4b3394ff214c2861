package exper

import (
	"fmt"
	"runtime"
	"time"

	"replicatree/internal/core"
	"replicatree/internal/rng"
	"replicatree/internal/tree"
)

// ScaleConfig parameterises the scalability measurements reported in the
// last paragraph of the paper's Section 5.2: MinCost on a 500-node tree
// with 125 pre-existing servers (paper: 30 minutes), power without
// pre-existing servers on 300 nodes (paper: one hour), and power with 10
// pre-existing servers on 70 nodes (paper: around one hour).
type ScaleConfig struct {
	MinCostNodes, MinCostPre           int
	PowerNoPreNodes                    int
	PowerWithPreNodes, PowerWithPrePre int
	Seed                               uint64
}

// PaperScale returns the paper's instance sizes.
func PaperScale() ScaleConfig {
	return ScaleConfig{
		MinCostNodes: 500, MinCostPre: 125,
		PowerNoPreNodes:   300,
		PowerWithPreNodes: 70, PowerWithPrePre: 10,
		Seed: DefaultSeed,
	}
}

// QuickScale returns reduced sizes suitable for tests and CI.
func QuickScale() ScaleConfig {
	return ScaleConfig{
		MinCostNodes: 120, MinCostPre: 30,
		PowerNoPreNodes:   60,
		PowerWithPreNodes: 30, PowerWithPrePre: 4,
		Seed: DefaultSeed,
	}
}

// ScaleRow is one scalability measurement.
type ScaleRow struct {
	Name    string
	Nodes   int
	Pre     int
	Elapsed time.Duration
	Detail  string
}

// RunScale executes the three scalability cases sequentially (each case
// is a single solver invocation; parallelism would only blur the
// timings) and reports wall-clock durations.
func RunScale(cfg ScaleConfig) ([]ScaleRow, error) {
	var rows []ScaleRow
	// Both power cases thread one PowerDP (rebound via Reset between
	// the trees), so the second case starts from already-warm arenas —
	// the same cross-tree pooling the sweep runners use per worker.
	var dp *core.PowerDP
	var front []core.ParetoPoint
	defer func() {
		if dp != nil {
			dp.SetWorkers(1) // release the wave pool
		}
	}()

	{ // MinCost-WithPre at scale.
		src := rng.Derive(cfg.Seed, 101)
		t := tree.MustGenerate(tree.FatConfig(cfg.MinCostNodes), src)
		existing, err := tree.RandomReplicas(t, cfg.MinCostPre, 1, src)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		res, err := core.NewMinCostSolver(t).Solve(existing, DefaultW, Exp1Cost())
		if err != nil {
			return nil, fmt.Errorf("exper: scale MinCost: %w", err)
		}
		rows = append(rows, ScaleRow{
			Name: "MinCost-WithPre", Nodes: cfg.MinCostNodes, Pre: cfg.MinCostPre,
			Elapsed: time.Since(start),
			Detail:  fmt.Sprintf("servers=%d reused=%d cost=%.3f", res.Servers, res.Reused, res.Cost),
		})
	}

	{ // MinPower-BoundedCost-NoPre at scale, serial and parallel. The
		// serial and parallel runs share one arena-backed PowerDP, so
		// the second run also measures the warmed-scratch steady state.
		src := rng.Derive(cfg.Seed, 102)
		t := tree.MustGenerate(tree.PowerConfig(cfg.PowerNoPreNodes), src)
		dp = core.NewPowerDP(t)
		for _, workers := range []int{1, runtime.NumCPU()} {
			// Invalidate between worker runs: the incremental solver
			// would otherwise skip the whole re-solve of an identical
			// instance, and the row must time a full solve.
			dp.Invalidate()
			dp.SetWorkers(workers)
			start := time.Now()
			solver, err := dp.Solve(core.PowerProblem{Power: Exp3Power(), Cost: Exp3Cost()})
			if err != nil {
				return nil, fmt.Errorf("exper: scale power NoPre: %w", err)
			}
			opt := solver.MinPower()
			front = solver.FrontInto(front)
			rows = append(rows, ScaleRow{
				Name: fmt.Sprintf("MinPower-BoundedCost-NoPre/w=%d", workers), Nodes: cfg.PowerNoPreNodes,
				Elapsed: time.Since(start),
				Detail:  fmt.Sprintf("minPower=%.1f servers=%d front=%d", opt.Power, opt.Placement.Count(), len(front)),
			})
		}
	}

	{ // MinPower-BoundedCost-WithPre at scale, serial and parallel.
		src := rng.Derive(cfg.Seed, 103)
		t := tree.MustGenerate(tree.PowerConfig(cfg.PowerWithPreNodes), src)
		existing, err := tree.RandomReplicas(t, cfg.PowerWithPrePre, 2, src)
		if err != nil {
			return nil, err
		}
		dp.Reset(t)
		for _, workers := range []int{1, runtime.NumCPU()} {
			dp.Invalidate() // time a full solve, not the skip path
			dp.SetWorkers(workers)
			start := time.Now()
			solver, err := dp.Solve(core.PowerProblem{Existing: existing, Power: Exp3Power(), Cost: Exp3Cost()})
			if err != nil {
				return nil, fmt.Errorf("exper: scale power WithPre: %w", err)
			}
			opt := solver.MinPower()
			front = solver.FrontInto(front)
			rows = append(rows, ScaleRow{
				Name: fmt.Sprintf("MinPower-BoundedCost-WithPre/w=%d", workers), Nodes: cfg.PowerWithPreNodes, Pre: cfg.PowerWithPrePre,
				Elapsed: time.Since(start),
				Detail:  fmt.Sprintf("minPower=%.1f servers=%d front=%d", opt.Power, opt.Placement.Count(), len(front)),
			})
		}
	}

	return rows, nil
}
