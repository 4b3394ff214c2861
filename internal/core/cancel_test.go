package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"replicatree/internal/cost"
	"replicatree/internal/power"
	"replicatree/internal/rng"
	"replicatree/internal/tree"
)

// These tests pin the cooperative-cancellation contract of the three
// solvers: a solve under a cancelled context returns the context's
// error within one checkpoint (bounded work, asserted via
// SolveStats.Recomputed), and the next solve under a live context
// returns results byte-identical to a solver that was never
// interrupted — the repairable-abort contract of cancel.go.

func cancelledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// cancelTreeNodes picks the tree size of the bounded-return test: the
// acceptance-sized 10^5 nodes normally, a tenth of that under -short
// (the bound and the repair path are size-independent; only the "a
// cold solve here is genuinely expensive" demonstration needs scale).
func cancelTreeNodes(t *testing.T) int {
	if testing.Short() {
		return 10_000
	}
	return 100_000
}

// TestMinCostCancelBoundedAndRepairable is the acceptance test for
// solver cancellation: cancelling a 10^5-node cold solve returns
// within one checkpoint stride, and the solver byte-matches an
// uninterrupted cold solve on the next call.
func TestMinCostCancelBoundedAndRepairable(t *testing.T) {
	src := rng.New(41)
	tr := tree.MustGenerate(tree.ScalePreset(cancelTreeNodes(t)), src)
	// No pre-existing set and the scale tier's W: mega-tree solves are
	// only tractable on the compressed-merge path (see bench_scale).
	c := cost.Simple{Create: 0.1, Delete: 0.01}
	const W = 100

	ref := NewMinCostSolver(tr)
	dstRef := tree.ReplicasOf(tr)
	want, err := ref.SolveInto(nil, W, c, dstRef)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4} {
		s := NewMinCostSolver(tr)
		s.SetWorkers(workers)
		dst := tree.ReplicasOf(tr)
		s.SetContext(cancelledCtx())
		if _, err := s.SolveInto(nil, W, c, dst); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: cancelled solve returned %v, want context.Canceled", workers, err)
		}
		// Bounded return: a pre-cancelled context is observed at the
		// first checkpoint, before any node table is rebuilt.
		if got := s.Stats().Recomputed; got >= cancelStride {
			t.Fatalf("workers=%d: cancelled solve rebuilt %d tables, want < %d (one checkpoint)", workers, got, cancelStride)
		}
		s.SetContext(context.Background())
		got, err := s.SolveInto(nil, W, c, dst)
		if err != nil {
			t.Fatalf("workers=%d: post-cancel solve: %v", workers, err)
		}
		if got.Cost != want.Cost || got.Servers != want.Servers || got.Reused != want.Reused {
			t.Fatalf("workers=%d: post-cancel result (%v, %d, %d), want (%v, %d, %d)",
				workers, got.Cost, got.Servers, got.Reused, want.Cost, want.Servers, want.Reused)
		}
		if !samePlacement(tr.N(), dst, dstRef) {
			t.Fatalf("workers=%d: post-cancel placement differs from uninterrupted solve", workers)
		}
		s.SetWorkers(1)
	}
}

// TestMinCostCancelMidDriftRepairable aborts a *warm* incremental
// solve (dirty ancestor chains pending) and checks the next live solve
// against a twin that was never interrupted — the tracker must
// re-dirty everything the aborted solve left uncommitted.
func TestMinCostCancelMidDriftRepairable(t *testing.T) {
	src := rng.New(42)
	tr := tree.MustGenerate(tree.FatConfig(400), src)
	existing, err := tree.RandomReplicas(tr, 60, 1, src)
	if err != nil {
		t.Fatal(err)
	}
	c := cost.Simple{Create: 0.1, Delete: 0.01}

	a, b := NewMinCostSolver(tr), NewMinCostSolver(tr)
	dstA, dstB := tree.ReplicasOf(tr), tree.ReplicasOf(tr)
	for step := 0; step < 4; step++ {
		if step > 0 {
			driftClients(tr, 3, src)
			// Abort one incremental solve on a; b never sees it.
			a.SetContext(cancelledCtx())
			if _, err := a.SolveInto(existing, 10, c, dstA); !errors.Is(err, context.Canceled) {
				t.Fatalf("step %d: aborted solve returned %v", step, err)
			}
			a.SetContext(nil)
		}
		ra, err := a.SolveInto(existing, 10, c, dstA)
		if err != nil {
			t.Fatalf("step %d: a: %v", step, err)
		}
		rb, err := b.SolveInto(existing, 10, c, dstB)
		if err != nil {
			t.Fatalf("step %d: b: %v", step, err)
		}
		if ra.Cost != rb.Cost || ra.Servers != rb.Servers || !samePlacement(tr.N(), dstA, dstB) {
			t.Fatalf("step %d: repaired solve diverged from uninterrupted twin", step)
		}
	}
}

// TestPowerDPCancelRepairable aborts a PowerDP cold solve, a warm
// drift solve, and a reprice-only solve (a cost-model change rebuilds
// no table, so on the sequential path the abort lands in the root
// scan's per-row polls, the third checkpoint family), checking the
// front against an uninterrupted sequential twin after every recovery.
// It runs sequentially and on the wave path, whose per-worker error
// and cancellation plumbing it covers.
func TestPowerDPCancelRepairable(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			testPowerDPCancelRepairable(t, workers)
		})
	}
}

func testPowerDPCancelRepairable(t *testing.T, workers int) {
	pm := powerModel2()
	costs := []cost.Modal{
		cost.UniformModal(2, 0.1, 0.01, 0.001),
		cost.UniformModal(2, 0.6, 0.05, 0.2),
	}
	src := rng.New(43)
	tr := tree.MustGenerate(tree.PowerConfig(24), src)
	existing, err := tree.RandomReplicas(tr, 3, 2, src)
	if err != nil {
		t.Fatal(err)
	}
	prob := func(cm cost.Modal) PowerProblem {
		return PowerProblem{Existing: existing, Power: pm, Cost: cm}
	}

	a, b := NewPowerDP(tr), NewPowerDP(tr)
	a.SetWorkers(workers)
	defer a.SetWorkers(1)

	// Cold abort.
	a.SetContext(cancelledCtx())
	if _, err := a.Solve(prob(costs[0])); !errors.Is(err, context.Canceled) {
		t.Fatalf("cold abort returned %v, want context.Canceled", err)
	}
	if got := a.Stats().Recomputed; got != 0 {
		t.Fatalf("cold abort rebuilt %d tables, want 0", got)
	}
	a.SetContext(context.Background())
	solA, err := a.Solve(prob(costs[0]))
	if err != nil {
		t.Fatal(err)
	}
	solB, err := b.Solve(prob(costs[0]))
	if err != nil {
		t.Fatal(err)
	}
	frontsEqual(t, "after cold abort", solB, solA)

	// Warm abort: dirty chains pending.
	driftClients(tr, 2, src)
	a.SetContext(cancelledCtx())
	if _, err := a.Solve(prob(costs[0])); !errors.Is(err, context.Canceled) {
		t.Fatalf("warm abort returned %v", err)
	}
	a.SetContext(nil)
	if solA, err = a.Solve(prob(costs[0])); err != nil {
		t.Fatal(err)
	}
	if solB, err = b.Solve(prob(costs[0])); err != nil {
		t.Fatal(err)
	}
	frontsEqual(t, "after warm abort", solB, solA)

	// Reprice abort: clean tables, new cost model — the cancellation
	// lands inside the root scan, which must still return
	// context.Canceled and leave nothing a later solve reads.
	a.SetContext(cancelledCtx())
	if _, err := a.Solve(prob(costs[1])); !errors.Is(err, context.Canceled) {
		t.Fatalf("reprice abort returned %v", err)
	}
	a.SetContext(nil)
	if solA, err = a.Solve(prob(costs[1])); err != nil {
		t.Fatal(err)
	}
	if solB, err = b.Solve(prob(costs[1])); err != nil {
		t.Fatal(err)
	}
	frontsEqual(t, "after reprice abort", solB, solA)
}

// TestQoSCancelRepairable aborts QoSSolver solves cold and warm and
// checks the recovered placements against an uninterrupted sequential
// twin, on the sequential and the wave path.
func TestQoSCancelRepairable(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			testQoSCancelRepairable(t, workers)
		})
	}
}

func testQoSCancelRepairable(t *testing.T, workers int) {
	src := rng.New(44)
	tr := tree.MustGenerate(tree.FatConfig(300), src)

	a, b := NewQoSSolver(tr), NewQoSSolver(tr)
	a.SetWorkers(workers)
	defer a.SetWorkers(1)
	dstA, dstB := tree.ReplicasOf(tr), tree.ReplicasOf(tr)

	a.SetContext(cancelledCtx())
	if _, err := a.Solve(12, nil, dstA); !errors.Is(err, context.Canceled) {
		t.Fatalf("cold abort returned %v, want context.Canceled", err)
	}
	if got := a.Stats().Recomputed; got >= cancelStride {
		t.Fatalf("cold abort rebuilt %d tables, want < %d", got, cancelStride)
	}
	a.SetContext(context.Background())
	for step := 0; step < 3; step++ {
		if step > 0 {
			driftClients(tr, 3, src)
			a.SetContext(cancelledCtx())
			if _, err := a.Solve(12, nil, dstA); !errors.Is(err, context.Canceled) {
				t.Fatalf("step %d: warm abort returned %v", step, err)
			}
			a.SetContext(nil)
		}
		if _, err := a.Solve(12, nil, dstA); err != nil {
			t.Fatalf("step %d: a: %v", step, err)
		}
		if _, err := b.Solve(12, nil, dstB); err != nil {
			t.Fatalf("step %d: b: %v", step, err)
		}
		if !samePlacement(tr.N(), dstA, dstB) {
			t.Fatalf("step %d: repaired placement diverged from twin", step)
		}
	}
}

// TestPowerDPWaveErrorRepairable drives a table-size overflow through
// the wave path: a wave worker's error must surface from Solve, and the
// next solve with the previous, valid instance must rebuild every table
// and match a sequential cold solve.
func TestPowerDPWaveErrorRepairable(t *testing.T) {
	src := rng.New(45)
	tr := tree.MustGenerate(tree.PowerConfig(40), src)
	existing, err := tree.RandomReplicas(tr, 6, 2, src)
	if err != nil {
		t.Fatal(err)
	}
	good := PowerProblem{Existing: existing, Power: powerModel2(), Cost: cost.UniformModal(2, 0.1, 0.01, 0.001)}
	dp := NewPowerDP(tr)
	dp.SetWorkers(4)
	defer dp.SetWorkers(1)
	if _, err := dp.Solve(good); err != nil {
		t.Fatal(err)
	}

	// Twelve modes blow the count-vector tables past maxTableCells
	// below the root, inside the waves.
	caps := make([]int, 12)
	for i := range caps {
		caps[i] = i + 5
	}
	bad := good
	bad.Power = power.MustNew(caps, 12.5, 3)
	bad.Cost = cost.UniformModal(12, 0.1, 0.01, 0.001)
	if _, err := dp.Solve(bad); err == nil || !strings.Contains(err.Error(), "DP table would need") {
		t.Fatalf("overflowing solve returned %v, want the table-size error", err)
	}

	got, err := dp.Solve(good)
	if err != nil {
		t.Fatal(err)
	}
	if st := dp.Stats(); st.Recomputed != tr.N() {
		t.Fatalf("solve after a failed run recomputed %d of %d nodes", st.Recomputed, tr.N())
	}
	want, err := NewPowerDP(tr).Solve(good)
	if err != nil {
		t.Fatal(err)
	}
	frontsEqual(t, "after wave error", want, got)
}
