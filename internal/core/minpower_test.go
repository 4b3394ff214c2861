package core

import (
	"errors"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"replicatree/internal/cost"
	"replicatree/internal/greedy"
	"replicatree/internal/power"
	"replicatree/internal/rng"
	"replicatree/internal/tree"
)

// fig2Instance is the paper's Figure 2 running example: modes {7, 10},
// power 10 + W², root with rootReq requests, A under the root, B (3
// requests) and C (7 requests) under A.
func fig2Instance(rootReq int) (*tree.Tree, power.Model) {
	b := tree.NewBuilder()
	a := b.AddNode(b.Root())
	bb := b.AddNode(a)
	cc := b.AddNode(a)
	b.AddClient(bb, 3)
	b.AddClient(cc, 7)
	if rootReq > 0 {
		b.AddClient(b.Root(), rootReq)
	}
	return b.MustBuild(), power.MustNew([]int{7, 10}, 10, 2)
}

func freeCost(modes int) cost.Modal { return cost.UniformModal(modes, 0, 0, 0) }

// TestPaperFigure2 encodes the running example of Section 4.1: with four
// root requests the optimum lets 3 requests traverse A (server at C at
// mode W1 plus the root at W1, power 118); with ten root requests the
// root is saturated, forcing a W2 server at A (power 220).
func TestPaperFigure2(t *testing.T) {
	const A, B, C = 1, 2, 3

	tr, pm := fig2Instance(4)
	s, err := SolvePower(PowerProblem{Tree: tr, Power: pm, Cost: freeCost(2)})
	if err != nil {
		t.Fatal(err)
	}
	res := s.MinPower()
	if !almost(res.Power, 118) {
		t.Fatalf("power = %v, want 118 (2 servers at W1)", res.Power)
	}
	if !res.Placement.Has(C) || !res.Placement.Has(0) || res.Placement.Count() != 2 {
		t.Fatalf("placement = %v, want {C, root}", res.Placement)
	}
	if res.Placement.Mode(C) != 1 || res.Placement.Mode(0) != 1 {
		t.Fatalf("modes = %v, want both W1", res.Placement)
	}

	tr, pm = fig2Instance(10)
	s, err = SolvePower(PowerProblem{Tree: tr, Power: pm, Cost: freeCost(2)})
	if err != nil {
		t.Fatal(err)
	}
	res = s.MinPower()
	if !almost(res.Power, 220) {
		t.Fatalf("power = %v, want 220 (A and root at W2)", res.Power)
	}
	if !res.Placement.Has(A) || res.Placement.Mode(A) != 2 {
		t.Fatalf("placement = %v, want A at W2", res.Placement)
	}
	_ = B
}

// TestFigure2SingleServerBeatsTwoSlow checks the example's power
// comparison: one W2 server at A consumes less than W1 servers at both B
// and C (10 + 100 < 2·(10 + 49)).
func TestFigure2SingleServerBeatsTwoSlow(t *testing.T) {
	_, pm := fig2Instance(0)
	if pm.NodePower(2) >= 2*pm.NodePower(1) {
		t.Fatalf("model broken: P(W2)=%v, 2P(W1)=%v", pm.NodePower(2), 2*pm.NodePower(1))
	}
}

func TestSolvePowerValidatesArgs(t *testing.T) {
	tr, pm := fig2Instance(4)
	if _, err := SolvePower(PowerProblem{Tree: nil, Power: pm, Cost: freeCost(2)}); err == nil {
		t.Error("nil tree accepted")
	}
	if _, err := SolvePower(PowerProblem{Tree: tr, Existing: tree.NewReplicas(2), Power: pm, Cost: freeCost(2)}); err == nil {
		t.Error("size mismatch accepted")
	}
	if _, err := SolvePower(PowerProblem{Tree: tr, Power: power.Model{}, Cost: freeCost(2)}); err == nil {
		t.Error("invalid power model accepted")
	}
	if _, err := SolvePower(PowerProblem{Tree: tr, Power: pm, Cost: freeCost(3)}); err == nil {
		t.Error("mode count mismatch accepted")
	}
	ex := tree.ReplicasOf(tr)
	ex.Set(0, 3)
	if _, err := SolvePower(PowerProblem{Tree: tr, Existing: ex, Power: pm, Cost: freeCost(2)}); err == nil {
		t.Error("existing mode above M accepted")
	}
}

func TestSolvePowerInfeasible(t *testing.T) {
	b := tree.NewBuilder()
	b.AddClient(0, 11)
	tr := b.MustBuild()
	_, err := SolvePower(PowerProblem{Tree: tr, Power: power.MustNew([]int{7, 10}, 10, 2), Cost: freeCost(2)})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("error = %v, want ErrInfeasible", err)
	}
}

func TestFrontShape(t *testing.T) {
	tr, pm := fig2Instance(4)
	cm := cost.UniformModal(2, 0.5, 0.1, 0.05)
	ex := tree.ReplicasOf(tr)
	ex.Set(2, 1)
	s, err := SolvePower(PowerProblem{Tree: tr, Existing: ex, Power: pm, Cost: cm})
	if err != nil {
		t.Fatal(err)
	}
	front := s.Front()
	if len(front) == 0 {
		t.Fatal("empty front")
	}
	for i := 1; i < len(front); i++ {
		if front[i].Cost <= front[i-1].Cost {
			t.Fatalf("front costs not increasing: %v", front)
		}
		if front[i].Power >= front[i-1].Power {
			t.Fatalf("front powers not decreasing: %v", front)
		}
	}
	// Every front point is achievable at exactly its cost.
	for i, pt := range front {
		res, ok := s.Best(pt.Cost)
		if !ok {
			t.Fatalf("front point %d not reachable", i)
		}
		if !almost(res.Power, pt.Power) || !almost(res.Cost, pt.Cost) {
			t.Fatalf("Best(%v) = (%v,%v), want (%v,%v)", pt.Cost, res.Cost, res.Power, pt.Cost, pt.Power)
		}
		at := s.At(i)
		if !almost(at.Power, pt.Power) {
			t.Fatalf("At(%d) power %v, want %v", i, at.Power, pt.Power)
		}
	}
	// Below the cheapest cost there is no solution.
	if _, ok := s.Best(front[0].Cost - 1e-6); ok {
		t.Fatal("solution below minimal cost")
	}
}

func TestBestMonotoneInBound(t *testing.T) {
	tr, pm := fig2Instance(4)
	cm := cost.UniformModal(2, 0.5, 0.1, 0.05)
	s, err := SolvePower(PowerProblem{Tree: tr, Power: pm, Cost: cm})
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for bound := 1.0; bound < 8; bound += 0.25 {
		res, ok := s.Best(bound)
		if !ok {
			continue
		}
		if res.Power > prev+1e-9 {
			t.Fatalf("power increased with larger bound at %v", bound)
		}
		prev = res.Power
	}
}

// TestReusedServerStaysAtInitialModeForFree exercises the subtle case
// where keeping a reused server at its (higher) initial mode avoids the
// change cost: with a tight bound the optimum pays more power instead.
func TestReusedServerStaysAtInitialModeForFree(t *testing.T) {
	// Single node with a 3-request client; pre-existing server at the
	// root with initial mode 2. Downgrading to W1 costs 10, staying
	// costs nothing.
	b := tree.NewBuilder()
	b.AddClient(0, 3)
	tr := b.MustBuild()
	pm := power.MustNew([]int{5, 10}, 0, 2)
	cm := cost.Modal{
		Create: []float64{0, 0},
		Delete: []float64{0, 0},
		Change: [][]float64{{0, 10}, {10, 0}},
	}
	ex := tree.ReplicasOf(tr)
	ex.Set(0, 2)
	s, err := SolvePower(PowerProblem{Tree: tr, Existing: ex, Power: pm, Cost: cm})
	if err != nil {
		t.Fatal(err)
	}
	// Bound 1: only the stay-at-mode-2 reuse is affordable (cost 1).
	res, ok := s.Best(1)
	if !ok {
		t.Fatal("no solution at bound 1")
	}
	if res.Placement.Mode(0) != 2 || !almost(res.Power, 100) {
		t.Fatalf("bound 1: mode %d power %v, want mode 2 power 100", res.Placement.Mode(0), res.Power)
	}
	// Bound 11: paying the downgrade halves the power.
	res, ok = s.Best(11)
	if !ok {
		t.Fatal("no solution at bound 11")
	}
	if res.Placement.Mode(0) != 1 || !almost(res.Power, 25) {
		t.Fatalf("bound 11: mode %d power %v, want mode 1 power 25", res.Placement.Mode(0), res.Power)
	}
}

func TestSingleModeMatchesMinCost(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		src := rng.Derive(seed, 9)
		tr := tree.MustGenerate(tree.FatConfig(1+src.IntN(40)), src)
		ex, _ := tree.RandomReplicas(tr, src.IntN(tr.N()/2+1), 1, src)
		sc := cost.Simple{Create: 0.1, Delete: 0.01}
		mc, err := MinCost(tr, ex, 10, sc)
		if err != nil {
			t.Fatal(err)
		}
		pm := power.MustNew([]int{10}, 1, 2)
		cm := cost.UniformModal(1, 0.1, 0.01, 0)
		s, err := SolvePower(PowerProblem{Tree: tr, Existing: ex, Power: pm, Cost: cm})
		if err != nil {
			t.Fatal(err)
		}
		// With one mode, power = count · NodePower(1); the minimal cost
		// on the front must equal the MinCost optimum.
		front := s.Front()
		if !almost(front[0].Cost, mc.Cost) {
			t.Fatalf("seed %d: modal min cost %v, MinCost %v", seed, front[0].Cost, mc.Cost)
		}
	}
}

func randomPowerInstance(seed uint64) (*tree.Tree, *tree.Replicas, power.Model, cost.Modal) {
	src := rng.Derive(seed, 10)
	cfg := tree.GenConfig{
		Nodes:       1 + src.IntN(8),
		MinChildren: 1 + src.IntN(2),
		MaxChildren: 3,
		ClientProb:  0.7,
		ReqMin:      1,
		ReqMax:      6,
	}
	tr := tree.MustGenerate(cfg, src)
	M := 2 + src.IntN(2) // 2 or 3 modes
	caps := make([]int, M)
	c := 3 + src.IntN(4)
	for i := range caps {
		caps[i] = c
		c += 2 + src.IntN(4)
	}
	pm := power.MustNew(caps, float64(src.IntN(20)), 2+src.Float64())
	cm := cost.UniformModal(M,
		float64(src.IntN(20))/10,
		float64(src.IntN(20))/10,
		float64(src.IntN(10))/10)
	ex, _ := tree.RandomReplicas(tr, src.IntN(tr.N()+1), M, src)
	return tr, ex, pm, cm
}

// Property: the DP agrees with brute force over subsets × mode vectors
// for every cost bound, including tight and unreachable ones.
func TestQuickPowerMatchesBruteForce(t *testing.T) {
	f := func(seed uint64) bool {
		tr, ex, pm, cm := randomPowerInstance(seed)
		cands, err := BrutePowerCandidates(tr, ex, pm, cm)
		if err != nil {
			t.Log(err)
			return false
		}
		s, errS := SolvePower(PowerProblem{Tree: tr, Existing: ex, Power: pm, Cost: cm})
		if len(cands) == 0 {
			return errors.Is(errS, ErrInfeasible)
		}
		if errS != nil {
			t.Logf("seed %d: DP failed but brute found %d candidates: %v", seed, len(cands), errS)
			return false
		}
		// Probe bounds around every distinct candidate cost.
		costs := map[float64]bool{}
		for _, c := range cands {
			costs[c.Cost] = true
		}
		bounds := []float64{math.Inf(1)}
		for c := range costs {
			bounds = append(bounds, c+1e-9, c-1e-7)
		}
		sort.Float64s(bounds)
		for _, bound := range bounds {
			want, wantOK := BruteBestPower(cands, bound)
			got, gotOK := s.Best(bound)
			if wantOK != gotOK {
				t.Logf("seed %d bound %v: brute found=%v DP found=%v", seed, bound, wantOK, gotOK)
				return false
			}
			if !wantOK {
				continue
			}
			if !almost(got.Power, want.Power) {
				t.Logf("seed %d bound %v: DP power %v, brute %v", seed, bound, got.Power, want.Power)
				return false
			}
			if got.Cost > bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: reconstructed placements are valid and realise the reported
// cost and power exactly.
func TestQuickPowerReconstructionConsistent(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.Derive(seed, 11)
		tr := tree.MustGenerate(tree.PowerConfig(1+src.IntN(30)), src)
		pm := power.MustNew([]int{5, 10}, 12.5, 3)
		cm := cost.UniformModal(2, 0.1, 0.01, 0.001)
		ex, _ := tree.RandomReplicas(tr, src.IntN(tr.N()/3+1), 2, src)
		s, err := SolvePower(PowerProblem{Tree: tr, Existing: ex, Power: pm, Cost: cm})
		if err != nil {
			return errors.Is(err, ErrInfeasible)
		}
		for i := range s.Front() {
			res := s.At(i)
			if tree.Validate(tr, res.Placement, func(m uint8) int { return pm.Cap(int(m)) }) != nil {
				t.Logf("seed %d point %d: invalid placement", seed, i)
				return false
			}
			cc, err := cm.OfReplicas(res.Placement, ex)
			if err != nil || !almost(cc, res.Cost) {
				t.Logf("seed %d point %d: cost %v vs reported %v", seed, i, cc, res.Cost)
				return false
			}
			if !almost(pm.OfReplicas(res.Placement), res.Power) {
				t.Logf("seed %d point %d: power mismatch", seed, i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the optimal DP never consumes more power than the greedy
// sweep at the same cost bound (the paper's Experiment 3 relation).
func TestQuickPowerBeatsGreedySweep(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.Derive(seed, 12)
		tr := tree.MustGenerate(tree.PowerConfig(1+src.IntN(40)), src)
		pm := power.MustNew([]int{5, 10}, 12.5, 3)
		cm := cost.UniformModal(2, 0.1, 0.01, 0.001)
		ex, _ := tree.RandomReplicas(tr, src.IntN(min(6, tr.N()+1)), 2, src)
		s, errS := SolvePower(PowerProblem{Tree: tr, Existing: ex, Power: pm, Cost: cm})
		for bound := 5.0; bound <= 30; bound += 5 {
			gr, err := greedy.PowerSweep(tr, ex, pm, cm, bound)
			if err != nil {
				return false
			}
			if !gr.Found {
				continue
			}
			if errS != nil {
				return false // greedy found a solution, DP must too
			}
			res, ok := s.Best(bound)
			if !ok || res.Power > gr.Power+1e-9 {
				t.Logf("seed %d bound %v: DP %v vs GR %v", seed, bound, res, gr.Power)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSolvePowerDeterministic(t *testing.T) {
	tr := tree.MustGenerate(tree.PowerConfig(40), rng.New(21))
	pm := power.MustNew([]int{5, 10}, 12.5, 3)
	cm := cost.UniformModal(2, 0.1, 0.01, 0.001)
	ex, _ := tree.RandomReplicas(tr, 5, 2, rng.New(22))
	a, err := SolvePower(PowerProblem{Tree: tr, Existing: ex, Power: pm, Cost: cm})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SolvePower(PowerProblem{Tree: tr, Existing: ex, Power: pm, Cost: cm})
	if err != nil {
		t.Fatal(err)
	}
	fa, fb := a.Front(), b.Front()
	if len(fa) != len(fb) {
		t.Fatalf("front lengths differ: %d vs %d", len(fa), len(fb))
	}
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatalf("front point %d differs", i)
		}
		if !a.At(i).Placement.Equal(b.At(i).Placement) {
			t.Fatalf("placement %d differs", i)
		}
	}
}

func TestPackProvRoundTrip(t *testing.T) {
	cases := []struct {
		a, c int
		m    uint8
	}{
		{0, 0, 0},
		{1, 2, 3},
		{maxTableCells - 1, maxTableCells - 1, 255},
		{12345, 678, 2},
	}
	for _, c := range cases {
		a, cc, m := unpackProv(packProv(c.a, c.c, c.m))
		if int(a) != c.a || int(cc) != c.c || m != c.m {
			t.Fatalf("pack(%d,%d,%d) round-tripped to (%d,%d,%d)", c.a, c.c, c.m, a, cc, m)
		}
	}
	// The packing preserves the sequential scan order.
	if packProv(1, 0, 5) <= packProv(0, 99, 0) {
		t.Fatal("accumulated cell must dominate the order")
	}
	if packProv(3, 1, 0) <= packProv(3, 0, 255) {
		t.Fatal("child cell must dominate the mode")
	}
}
