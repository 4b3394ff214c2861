package core

import (
	"math"
	"testing"

	"replicatree/internal/cost"
	"replicatree/internal/rng"
	"replicatree/internal/tree"
)

// These tests pin the incremental root-scan contract of PowerDP: the
// delta-priced, block-sharded scan must return byte-for-byte the front
// a cold solver computes, for any drift sequence, any worker count and
// any mix of table edits with cost-model swaps — while provably
// re-pricing only the root-table blocks whose cells changed
// (SolveStats.RootCellsScanned / RootCellsRepriced).

// frontsEqual fails the test unless the two solvers expose identical
// fronts and reconstruct identical placements at every point.
func frontsEqual(t *testing.T, label string, want, got *PowerSolver) {
	t.Helper()
	wf, gf := want.Front(), got.Front()
	if len(wf) != len(gf) {
		t.Fatalf("%s: front sizes %d != %d", label, len(wf), len(gf))
	}
	for k := range wf {
		if wf[k] != gf[k] {
			t.Fatalf("%s: front[%d] %v != %v", label, k, wf[k], gf[k])
		}
		if !want.At(k).Placement.Equal(got.At(k).Placement) {
			t.Fatalf("%s: placement %d differs", label, k)
		}
	}
}

// TestRootScanIncrementalMatchesCold drives a warm PowerDP through
// random drift steps interleaved with cost-model swaps (which leave
// every subtree table valid and exercise the reprice-without-remerge
// path) and no-op re-solves (the skip-scan path), checking the front
// against a cold solve at every step.
func TestRootScanIncrementalMatchesCold(t *testing.T) {
	pm := powerModel2()
	costs := []cost.Modal{
		cost.UniformModal(2, 0.1, 0.01, 0.001),
		cost.UniformModal(2, 0.6, 0.05, 0.2),
		cost.UniformModal(2, 0, 0, 0),
	}
	for i := 0; i < reuseTreeCount(t)/2; i++ {
		src := rng.Derive(211, i)
		tr := tree.MustGenerate(tree.PowerConfig(16+i%12), src)
		existing, err := tree.RandomReplicas(tr, 3, 2, src)
		if err != nil {
			t.Fatal(err)
		}
		dp := NewPowerDP(tr)
		for step := 0; step < 10; step++ {
			switch step % 4 {
			case 0, 2:
				driftClients(tr, 1+src.IntN(2), src)
			case 1:
				// Cost swap only: tables stay clean, the scan re-prices.
			case 3:
				// Nothing at all: the scan itself is skipped.
			}
			prob := PowerProblem{Tree: tr, Existing: existing, Power: pm, Cost: costs[step%len(costs)]}
			got, gotErr := dp.Solve(prob)
			want, wantErr := SolvePower(prob)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("tree %d step %d: cold err %v, incremental err %v", i, step, wantErr, gotErr)
			}
			if wantErr != nil {
				continue
			}
			frontsEqual(t, "incremental", want, got)
		}
	}
}

// TestRootScanParallelDeterministic pins the block-sharded scan behind
// the wave-parallel pass: the front and every reconstruction must be
// identical for any SetWorkers count, on cold solves and on incremental
// re-solves alike (the short-suite race run covers the pool hand-offs).
func TestRootScanParallelDeterministic(t *testing.T) {
	pm := powerModel2()
	cm := cost.UniformModal(2, 0.1, 0.01, 0.001)
	src := rng.New(212)
	tr := tree.MustGenerate(tree.PowerConfig(40), src)
	existing, err := tree.RandomReplicas(tr, 4, 2, src)
	if err != nil {
		t.Fatal(err)
	}

	ref := NewPowerDP(tr)
	dps := map[int]*PowerDP{2: NewPowerDP(tr), 8: NewPowerDP(tr)}
	for workers, dp := range dps {
		dp.SetWorkers(workers)
	}
	for step := 0; step < 4; step++ {
		if step > 0 {
			driftClients(tr, 2, src)
		}
		want, err := ref.Solve(PowerProblem{Tree: tr, Existing: existing, Power: pm, Cost: cm})
		if err != nil {
			t.Fatal(err)
		}
		for workers, dp := range dps {
			got, err := dp.Solve(PowerProblem{Tree: tr, Existing: existing, Power: pm, Cost: cm})
			if err != nil {
				t.Fatal(err)
			}
			// Both solvers alias scratch, so compare before the next
			// worker count re-solves.
			wf, gf := want.Front(), got.Front()
			if len(wf) != len(gf) {
				t.Fatalf("step %d workers %d: front sizes %d != %d", step, workers, len(wf), len(gf))
			}
			for k := range wf {
				if wf[k] != gf[k] {
					t.Fatalf("step %d workers %d: front[%d] %v != %v", step, workers, k, wf[k], gf[k])
				}
				if !want.At(k).Placement.Equal(got.At(k).Placement) {
					t.Fatalf("step %d workers %d: placement %d differs", step, workers, k)
				}
			}
		}
	}
}

// TestRootCellsRepricedBounds pins the SolveStats contract of the
// incremental scan on a seeded drift sequence: a cold solve prices the
// whole root table, a no-op solve skips the scan, a cost-model swap
// re-prices without recomputing any table, and drift steps re-price at
// most what they scan — strictly less in aggregate, which is the
// "drift reprices fewer root cells than a cold solve" acceptance bound.
func TestRootCellsRepricedBounds(t *testing.T) {
	src := rng.New(2026)
	tr := tree.MustGenerate(tree.PowerConfig(50), src)
	existing, err := tree.RandomReplicas(tr, 5, 2, src)
	if err != nil {
		t.Fatal(err)
	}
	dp := NewPowerDP(tr)
	prob := PowerProblem{Tree: tr, Existing: existing, Power: powerModel2(), Cost: cost.UniformModal(2, 0.1, 0.01, 0.001)}

	if _, err := dp.Solve(prob); err != nil {
		t.Fatal(err)
	}
	cold := dp.Stats()
	if cold.RootCellsScanned == 0 || cold.RootCellsRepriced != cold.RootCellsScanned {
		t.Fatalf("cold solve: scanned %d, repriced %d; want a full scan",
			cold.RootCellsScanned, cold.RootCellsRepriced)
	}

	// Nothing changed: the scan is skipped outright.
	if _, err := dp.Solve(prob); err != nil {
		t.Fatal(err)
	}
	if st := dp.Stats(); st.RootCellsScanned != 0 || st.RootCellsRepriced != 0 {
		t.Fatalf("no-op solve: scanned %d, repriced %d; want 0, 0",
			st.RootCellsScanned, st.RootCellsRepriced)
	}

	// A cost-model swap re-prices everything but recomputes no table.
	swapped := prob
	swapped.Cost = cost.UniformModal(2, 0.9, 0.2, 0.05)
	if _, err := dp.Solve(swapped); err != nil {
		t.Fatal(err)
	}
	if st := dp.Stats(); st.Recomputed != 0 ||
		st.RootCellsScanned != cold.RootCellsScanned || st.RootCellsRepriced != cold.RootCellsScanned {
		t.Fatalf("cost swap: recomputed %d, scanned %d, repriced %d; want 0, %d, %d",
			st.Recomputed, st.RootCellsScanned, st.RootCellsRepriced,
			cold.RootCellsScanned, cold.RootCellsScanned)
	}
	if _, err := dp.Solve(prob); err != nil { // swap back
		t.Fatal(err)
	}

	// Drift steps: never re-price beyond the scan, and strictly less
	// than a cold scan in aggregate (the diff reuses unchanged blocks).
	totalRepriced, steps := 0, 12
	for trial := 0; trial < steps; trial++ {
		driftClients(tr, 1, src)
		if _, err := dp.Solve(prob); err != nil {
			t.Fatal(err)
		}
		st := dp.Stats()
		if st.RootCellsScanned != cold.RootCellsScanned {
			t.Fatalf("trial %d: scanned %d, want %d", trial, st.RootCellsScanned, cold.RootCellsScanned)
		}
		if st.RootCellsRepriced > st.RootCellsScanned {
			t.Fatalf("trial %d: repriced %d > scanned %d", trial, st.RootCellsRepriced, st.RootCellsScanned)
		}
		totalRepriced += st.RootCellsRepriced
	}
	if totalRepriced >= steps*cold.RootCellsScanned {
		t.Fatalf("drift sequence repriced %d cells over %d steps; want < %d (some block reuse)",
			totalRepriced, steps, steps*cold.RootCellsScanned)
	}
}

// TestPushFrontKeepsExactPareto checks the streaming filter against a
// brute-force Pareto computation on adversarial insertion orders.
func TestPushFrontKeepsExactPareto(t *testing.T) {
	src := rng.New(213)
	for trial := 0; trial < 200; trial++ {
		n := 1 + src.IntN(24)
		entries := make([]frontEntry, n)
		for i := range entries {
			entries[i] = frontEntry{
				cost:  float64(src.IntN(8)),
				power: float64(src.IntN(8)),
			}
		}
		var front []frontEntry
		for _, e := range entries {
			front = pushFront(front, e)
		}
		// Brute-force: an entry survives iff no other entry weakly
		// dominates it (ties keep exactly one copy).
		for _, e := range entries {
			dominated := false
			for _, o := range entries {
				if (o.cost < e.cost && o.power <= e.power) || (o.cost <= e.cost && o.power < e.power) {
					dominated = true
					break
				}
			}
			found := false
			for _, f := range front {
				if f.cost == e.cost && f.power == e.power {
					found = true
					break
				}
			}
			if dominated && found {
				t.Fatalf("trial %d: dominated entry %v kept in %v", trial, e, front)
			}
			if !dominated && !found {
				t.Fatalf("trial %d: non-dominated entry %v missing from %v", trial, e, front)
			}
		}
		for i := 1; i < len(front); i++ {
			if front[i].cost <= front[i-1].cost || front[i].power >= front[i-1].power {
				t.Fatalf("trial %d: front order broken: %v", trial, front)
			}
		}
	}
}

// TestFrontIntoMatchesFront pins FrontInto: identical content to Front
// and allocation-free once the destination has grown.
func TestFrontIntoMatchesFront(t *testing.T) {
	src := rng.New(214)
	tr := tree.MustGenerate(tree.PowerConfig(30), src)
	existing, err := tree.RandomReplicas(tr, 4, 2, src)
	if err != nil {
		t.Fatal(err)
	}
	s, err := SolvePower(PowerProblem{
		Tree: tr, Existing: existing,
		Power: powerModel2(), Cost: cost.UniformModal(2, 0.1, 0.01, 0.001),
	})
	if err != nil {
		t.Fatal(err)
	}
	want := s.Front()
	var dst []ParetoPoint
	dst = s.FrontInto(dst)
	if len(dst) != len(want) {
		t.Fatalf("FrontInto returned %d points, Front %d", len(dst), len(want))
	}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("point %d: %v != %v", i, dst[i], want[i])
		}
	}
	if testing.Short() {
		return
	}
	if n := testing.AllocsPerRun(5, func() {
		dst = s.FrontInto(dst)
	}); n != 0 {
		t.Errorf("warm FrontInto: %v allocs/op, want 0", n)
	}
}

// TestRootScanSkipsAfterReset guards the rebind path: a Reset must drop
// the retained scan context, so the first solve on the new tree cannot
// reuse fronts priced for the old one even when shapes coincide.
func TestRootScanSkipsAfterReset(t *testing.T) {
	pm := powerModel2()
	cm := cost.UniformModal(2, 0.1, 0.01, 0.001)
	a := tree.MustGenerate(tree.PowerConfig(20), rng.New(215))
	b := tree.MustGenerate(tree.PowerConfig(20), rng.New(216))
	dp := NewPowerDP(a)
	if _, err := dp.Solve(PowerProblem{Tree: a, Power: pm, Cost: cm}); err != nil {
		t.Fatal(err)
	}
	dp.Reset(b)
	got, err := dp.Solve(PowerProblem{Tree: b, Power: pm, Cost: cm})
	if err != nil {
		t.Fatal(err)
	}
	want, err := SolvePower(PowerProblem{Tree: b, Power: pm, Cost: cm})
	if err != nil {
		t.Fatal(err)
	}
	frontsEqual(t, "after Reset", want, got)
	wOpt, gOpt := want.MinPower(), got.MinPower()
	if wOpt.Power != gOpt.Power || math.Abs(wOpt.Cost-gOpt.Cost) > 1e-12 {
		t.Fatalf("rebound optimum (%v, %v) != cold (%v, %v)", gOpt.Cost, gOpt.Power, wOpt.Cost, wOpt.Power)
	}
}
