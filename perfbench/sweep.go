package main

import (
	"fmt"
	"math"
	"os"
	"syscall"
	"time"

	"replicatree/internal/core"
	"replicatree/internal/exper"
	"replicatree/internal/greedy"
	"replicatree/internal/rng"
	"replicatree/internal/tree"
)

// sweepSeconds is about the time of one Figure 8 + Figure 10 sweep on a
// 2-CPU machine, with margin; a run makes --seconds / sweepSeconds
// sweeps, rounded down.
const sweepSeconds = 15

// coldTrees is how many trees per figure the set-up cold-solves, each
// with a fresh solver, to time cold_load_ms.
const coldTrees = 3

// sweepFigures returns the paper's Figure 8 and Figure 10 experiments
// (100 trees of 50 nodes, 5 pre-existing servers, modes {5,10}) for
// sweep k of a run, seeded from the run's seed.
func sweepFigures(seed uint64, k, workers int) []exper.Exp3Config {
	figs := []exper.Exp3Config{exper.DefaultExp3(), exper.Exp3Fig10()}
	for f := range figs {
		figs[f].Seed = rng.Derive(seed, 2*k+f).Uint64()
		figs[f].Workers = workers
	}
	return figs
}

// paperTree draws tree i of an Experiment 3 batch exactly as
// exper.RunExp3 does.
func paperTree(cfg exper.Exp3Config, i int) (*tree.Tree, *tree.Replicas, error) {
	src := rng.Derive(cfg.Seed, i)
	t := tree.MustGenerate(cfg.Gen, src)
	existing, err := tree.RandomReplicas(t, cfg.Pre, cfg.Power.M(), src)
	return t, existing, err
}

func runSweep(e *env) (*outcome, error) {
	// The cold loads solve a fixed reference set, the first coldTrees
	// trees of both figures at the paper's seed: cold-solve time
	// differs widely between trees, and seeding the set would make the
	// spread between runs measure trees instead of the program.
	ref := sweepFigures(exper.DefaultSeed, 0, e.nproc)
	var setup, cold []float64
	coldSolves := func() error {
		for _, cfg := range ref {
			for i := 0; i < coldTrees; i++ {
				t0 := time.Now()
				t, existing, err := paperTree(cfg, i)
				if err != nil {
					return err
				}
				if _, err := core.SolvePower(core.PowerProblem{Tree: t, Existing: existing, Power: cfg.Power, Cost: cfg.Cost}); err != nil {
					return err
				}
				cold = append(cold, ms(time.Since(t0)))
			}
		}
		return nil
	}
	for r := 0; r < setupReps; r++ {
		t0 := time.Now()
		if err := coldSolves(); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}

	// A run makes a fixed number of sweeps, so that every run of one
	// length reports the median and tail of the same sample count.
	n := max(1, e.seconds/sweepSeconds)
	var sweeps []float64
	trees := 0
	var busy time.Duration
	for k := 0; k < n; k++ {
		t0 := time.Now()
		for _, cfg := range sweepFigures(e.seed, k, e.nproc) {
			s := e.tr.begin("exper.run_exp3", -1, int64(k))
			res, err := exper.RunExp3(cfg)
			e.tr.end(s)
			if err != nil {
				return nil, err
			}
			if err := checkExp3(res); err != nil {
				return nil, fmt.Errorf("sweep %d, seed %d: %w", k, cfg.Seed, err)
			}
			trees += cfg.Trees
		}
		busy += time.Since(t0)
		sweeps = append(sweeps, ms(time.Since(t0)))
		// More cold loads between sweeps spread them over the run.
		if err := coldSolves(); err != nil {
			return nil, err
		}
	}

	sw := summarize(sweeps)
	out := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}, attempted: 2 * len(sweeps)}
	out.e2e["setup_s"] = median(setup)
	out.e2e["cold_load_ms"] = median(cold)
	out.e2e["op_p50_ms"] = sw.p50
	out.e2e["op_tail_ms"] = sw.tail
	out.e2e["op_rate_per_s"] = float64(trees) / busy.Seconds()
	out.e2e["peak_rss_mb"] = selfPeakRSS()
	fmt.Fprintf(os.Stderr, "perfbench: paper-sweep: %d sweeps of %d trees in %.2fs\n", len(sweeps), trees/len(sweeps), busy.Seconds())
	if e.tr != nil {
		if err := replaySweep(e, sweepFigures(e.seed, 0, e.nproc), out.layers); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// selfPeakRSS is this process's peak resident set in MB.
func selfPeakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// replaySweep times the layers of Experiment 3 per tree, sequentially:
// the power DP solve, every cost-bound query against its front and the
// greedy sweep at every bound, inside an exper.tree span whose self
// time is the experiment's own bookkeeping.
func replaySweep(e *env, figs []exper.Exp3Config, layers map[string]float64) error {
	tr := e.tr
	var solveT, bestT, greedyT, selfT []float64
	var cells, repriced, front, n float64
	for f, cfg := range figs {
		var dp *core.PowerDP
		var dst *tree.Replicas
		deadline := time.Now().Add(replayBudget / time.Duration(len(figs)))
		for i := 0; i < cfg.Trees && time.Now().Before(deadline); i++ {
			req := int64(f*cfg.Trees + i)
			root := tr.begin("exper.tree", -1, req)
			t, existing, err := paperTree(cfg, i)
			if err != nil {
				return err
			}
			if dp == nil {
				dp = core.NewPowerDP(t)
			} else {
				dp.Reset(t)
			}
			if dst == nil || dst.N() != t.N() {
				dst = tree.ReplicasOf(t)
			}
			s := tr.begin("core.power.solve", root, req)
			solver, err := dp.Solve(core.PowerProblem{Existing: existing, Power: cfg.Power, Cost: cfg.Cost})
			if err != nil {
				return err
			}
			solveT = append(solveT, ms(tr.end(s)))
			st := dp.Stats()
			cells += float64(st.MergeCellsScanned)
			repriced += float64(st.RootCellsRepriced)
			front += float64(len(solver.Front()))
			n++
			var inner time.Duration
			for _, bound := range cfg.Bounds {
				s = tr.begin("core.power.best", root, req)
				solver.BestInto(bound, dst)
				d := tr.end(s)
				bestT = append(bestT, float64(d)/1e3)
				s = tr.begin("greedy.power_sweep", root, req)
				if _, err := greedy.PowerSweep(t, existing, cfg.Power, cfg.Cost, bound); err != nil {
					return err
				}
				g := tr.end(s)
				greedyT = append(greedyT, ms(g))
				inner += d + g
			}
			total := tr.end(root)
			selfT = append(selfT, ms(total-inner)-solveT[len(solveT)-1])
		}
	}
	layers["core.power.solve_ms.p50"] = median(solveT)
	layers["core.power.best_us"] = median(bestT)
	layers["greedy.power_sweep_ms"] = median(greedyT)
	layers["exper.tree_self_ms"] = median(selfT)
	if n > 0 {
		layers["core.power.merge_cells"] = cells / n
		layers["core.power.root_cells_repriced"] = repriced / n
		layers["core.power.front_len"] = front / n
	}
	return nil
}
