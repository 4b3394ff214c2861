package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"replicatree/internal/cost"
	"replicatree/internal/rng"
	"replicatree/internal/tree"
)

// These tests pin the root-scan contract of PowerDP: a warm solver's
// scan must return byte-for-byte the front a cold solver computes, for
// any drift sequence, any worker count and any mix of table edits with
// cost-model swaps, while pricing only the starts of the root rows'
// runs (SolveStats.RootCellsRepriced).

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
// path) and no-op re-solves (clean tables, same pricing, re-priced
// anyway), checking the front against a cold solve at every step.
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
				// Nothing at all: no table is rebuilt, the root re-priced.
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

// TestRootScanParallelDeterministic pins the root scan behind the
// wave-parallel pass: the front and every reconstruction must be
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

// rootRuns counts the runs of dp's root table, the cells its scan
// prices, and returns the table's size next to it.
func rootRuns(dp *PowerDP) (runs, size int) {
	tab, sh := dp.final(dp.t.Root())
	nM := dp.M - 1
	for r := int32(0); r < int32(sh.size)/sh.dims[nM]; r++ {
		runs += len(tab.row(r))
	}
	return runs, sh.size
}

// TestRootCellsRepricedBounds pins the SolveStats contract of the root
// scan on a seeded drift sequence: every solve prices exactly the run
// starts of the root table, strictly fewer than its cells; a no-op
// solve and a cost-model swap rebuild no table and price the same run
// starts as the cold solve.
func TestRootCellsRepricedBounds(t *testing.T) {
	src := rng.New(2026)
	tr := tree.MustGenerate(tree.PowerConfig(50), src)
	existing, err := tree.RandomReplicas(tr, 5, 2, src)
	if err != nil {
		t.Fatal(err)
	}
	dp := NewPowerDP(tr)
	prob := PowerProblem{Tree: tr, Existing: existing, Power: powerModel2(), Cost: cost.UniformModal(2, 0.1, 0.01, 0.001)}
	solve := func(label string, p PowerProblem) SolveStats {
		t.Helper()
		if _, err := dp.Solve(p); err != nil {
			t.Fatal(err)
		}
		st := dp.Stats()
		runs, size := rootRuns(dp)
		if st.RootCellsRepriced != runs || runs == 0 || runs >= size {
			t.Fatalf("%s: repriced %d; want the %d run starts, below the %d cells", label, st.RootCellsRepriced, runs, size)
		}
		return st
	}

	cold := solve("cold solve", prob)
	// Nothing changed, and a cost-model swap: no table is rebuilt, and
	// the same run starts are priced again.
	swapped := prob
	swapped.Cost = cost.UniformModal(2, 0.9, 0.2, 0.05)
	for _, c := range []struct {
		label string
		p     PowerProblem
	}{{"no-op", prob}, {"cost swap", swapped}, {"swap back", prob}} {
		if st := solve(c.label, c.p); st.Recomputed != 0 || st.RootCellsRepriced != cold.RootCellsRepriced {
			t.Fatalf("%s: recomputed %d, repriced %d; want 0, %d", c.label, st.Recomputed, st.RootCellsRepriced, cold.RootCellsRepriced)
		}
	}
	for trial := 0; trial < 12; trial++ {
		driftClients(tr, 1, src)
		solve(fmt.Sprintf("drift %d", trial), prob)
	}
}

// TestPushFrontKeepsExactPareto checks the streaming filter against a
// brute-force Pareto computation on adversarial insertion orders, and
// its tie rule: of entries equal in cost and power the smallest
// (rootCell, rootMode) stays, so every insertion order of the same
// entries yields the same front.
func TestPushFrontKeepsExactPareto(t *testing.T) {
	src := rng.New(213)
	for trial := 0; trial < 200; trial++ {
		n := 1 + src.IntN(24)
		entries := make([]frontEntry, n)
		for i := range entries {
			// Distinct (rootCell, rootMode) keys, like the root scan's
			// candidates, with ties in (cost, power) frequent.
			entries[i] = frontEntry{
				cost:     float64(src.IntN(8)),
				power:    float64(src.IntN(8)),
				rootCell: int32(i / 2),
				rootMode: uint8(i % 2),
			}
		}
		var first []frontEntry
		for order := 0; order < 4; order++ {
			var front []frontEntry
			for _, k := range src.Perm(n) {
				front = pushFront(front, entries[k])
			}
			if order == 0 {
				first = front
			} else if !slices.Equal(front, first) {
				t.Fatalf("trial %d: insertion order changed the front: %v, first %v", trial, front, first)
			}
		}
		// Brute-force: an entry survives iff no other entry weakly
		// dominates it and no entry tied with it has a smaller key.
		for _, e := range entries {
			dominated := false
			for _, o := range entries {
				if (o.cost < e.cost && o.power <= e.power) || (o.cost <= e.cost && o.power < e.power) ||
					(o.cost == e.cost && o.power == e.power && frontBefore(o, e) < 0) {
					dominated = true
					break
				}
			}
			if found := slices.Contains(first, e); dominated == found {
				t.Fatalf("trial %d: entry %v dominated %v, kept %v in %v", trial, e, dominated, found, first)
			}
		}
		for i := 1; i < len(first); i++ {
			if first[i].cost <= first[i-1].cost || first[i].power >= first[i-1].power {
				t.Fatalf("trial %d: front order broken: %v", trial, first)
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

// TestRootScanSkipsAfterReset guards the rebind path: the first solve
// after a Reset must price the new tree's root table, never answer with
// a front left from the old tree, even when shapes coincide.
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
