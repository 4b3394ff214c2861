package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"replicatree/internal/cost"
	"replicatree/internal/power"
	"replicatree/internal/rng"
	"replicatree/internal/tree"
)

// powerGoldenHash is the FNV-64a digest of every result TestPowerGolden
// computes. A change to it means the power DP now answers differently:
// a front point, a reconstructed placement, a solve's outcome or the
// amount of retained work an incremental solve reused. Front points tied
// in cost and power resolve to the smaller (rootCell, rootMode), so the
// digest does not depend on the order the root scan visits cells.
const powerGoldenHash = 0x585d240a92b9f78d

// goldenBounds returns lo, lo+step, …, hi.
func goldenBounds(lo, hi, step float64) []float64 {
	var out []float64
	for v := lo; v <= hi+1e-9; v += step {
		out = append(out, v)
	}
	return out
}

// powerGoldenCase is one pricing of a corpus tree: the power model, the
// cost model and the cost bounds BestInto is asked for.
type powerGoldenCase struct {
	pm     power.Model
	cm     cost.Modal
	bounds []float64
}

// The Experiment 3 pricings of Figures 8 and 10 (Exp3Cost) and of
// Figure 11 (expensive creation and deletion), plus a three-mode model.
var (
	goldenExp3 = powerGoldenCase{
		pm:     powerModel2(),
		cm:     cost.UniformModal(2, 0.1, 0.01, 0.001),
		bounds: goldenBounds(10, 45, 1),
	}
	goldenFig11 = powerGoldenCase{
		pm:     goldenExp3.pm,
		cm:     cost.UniformModal(2, 1, 1, 0.1),
		bounds: goldenBounds(30, 90, 2),
	}
	goldenM3 = powerGoldenCase{
		pm:     power.MustNew([]int{3, 6, 10}, 12.5, 3),
		cm:     cost.UniformModal(3, 0.1, 0.01, 0.001),
		bounds: goldenBounds(0, 3, 0.1),
	}
)

// goldenPowerTree draws a paper fat tree (high == false) or high tree
// with Experiment 3 demands (1-5 requests per client).
func goldenPowerTree(src *rng.Source, n int, high bool) *tree.Tree {
	c := tree.PowerConfig(n)
	if high {
		c = tree.HighConfig(n)
		c.ReqMin, c.ReqMax = 1, 5
	}
	return tree.MustGenerate(c, src)
}

// TestPowerGolden pins the exact output of the power DP over a seeded
// corpus: Exp3-style fat and high trees with pre-existing servers under
// two and three modes, wide pre-free trees, and drift sequences through
// one reused PowerDP (demand edits, changed initial modes, pre-existing
// sets emptied and refilled, and a Reset), each drift step also checked
// against a cold PowerDP. It
// digests front costs and powers as float bits, At(i) for every front
// point, and BestInto at every bound and just under every front cost,
// for one and four workers. Any rewrite of the merge kernels must
// leave the digest unchanged.
func TestPowerGolden(t *testing.T) {
	h := fnv.New64a()
	var buf []byte
	put := func(vs ...uint64) {
		buf = buf[:0]
		for _, v := range vs {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
		h.Write(buf)
	}
	putRes := func(r PowerResult) {
		put(math.Float64bits(r.Cost), math.Float64bits(r.Power))
		for j := 0; j < r.Placement.N(); j++ {
			put(uint64(r.Placement.Mode(j)))
		}
	}
	digest := func(dp *PowerDP, c powerGoldenCase, prob PowerProblem) *PowerSolver {
		s, err := dp.Solve(prob)
		if err != nil {
			h.Write([]byte(err.Error()))
			return nil
		}
		st := dp.Stats()
		put(uint64(st.Recomputed), uint64(st.RootMergeRetained))
		front := s.Front()
		put(uint64(len(front)))
		for i, f := range front {
			put(math.Float64bits(f.Cost), math.Float64bits(f.Power))
			putRes(*s.At(i))
		}
		// The configured bounds, then one just under every front cost,
		// which must answer with the previous front point.
		bounds := slices.Clip(c.bounds)
		for _, f := range front {
			bounds = append(bounds, f.Cost-1e-6)
		}
		dst := tree.ReplicasOf(prob.Tree)
		for _, b := range bounds {
			res, ok := s.BestInto(b, dst)
			if !ok {
				put(0)
				continue
			}
			put(1)
			putRes(res)
		}
		return s
	}

	compressedRows := 0
	for _, workers := range []int{1, 4} {
		var dp *PowerDP
		solver := func(tr *tree.Tree) *PowerDP {
			if dp == nil {
				dp = NewPowerDP(tr)
				dp.SetWorkers(workers)
				t.Cleanup(func() { dp.SetWorkers(1) })
			} else {
				dp.Reset(tr)
			}
			return dp
		}

		// Exp3-style trees with pre-existing servers, two modes.
		for i := 0; i < 24; i++ {
			src := rng.Derive(16, i)
			tr := goldenPowerTree(src, 20+(i*7)%31, i%2 == 1)
			c := goldenExp3
			if i%3 == 2 {
				c = goldenFig11
			}
			ex, err := tree.RandomReplicas(tr, 1+i%5, 2, src)
			if err != nil {
				t.Fatal(err)
			}
			digest(solver(tr), c, PowerProblem{Tree: tr, Existing: ex, Power: c.pm, Cost: c.cm})
		}

		// Three modes with pre-existing servers.
		for i := 0; i < 10; i++ {
			src := rng.Derive(17, i)
			tr := goldenPowerTree(src, 7+i%8, i%2 == 1)
			ex, err := tree.RandomReplicas(tr, 1+i%3, 3, src)
			if err != nil {
				t.Fatal(err)
			}
			digest(solver(tr), goldenM3, PowerProblem{Tree: tr, Existing: ex, Power: goldenM3.pm, Cost: goldenM3.cm})
		}

		// Pre-free trees with root rows wider than 64 cells along n_M.
		for i := 0; i < 2; i++ {
			src := rng.Derive(18, i)
			tr := goldenPowerTree(src, 70+15*i, false)
			dp := solver(tr)
			digest(dp, goldenExp3, PowerProblem{Tree: tr, Power: goldenExp3.pm, Cost: goldenExp3.cm})
			compressedRows += dp.Stats().RowsCompressed
		}

		// Drift sequences through one PowerDP. Demand edits concentrate
		// under the root's first child, so the root fold replays from
		// its first step.
		for i := 0; i < 3; i++ {
			src := rng.Derive(19, i)
			tr := goldenPowerTree(src, 26+4*i, i == 1)
			ex, err := tree.RandomReplicas(tr, 3, 2, src)
			if err != nil {
				t.Fatal(err)
			}
			var hot []int // client-carrying nodes under the root's first child
			for j := 0; j < tr.N(); j++ {
				a := j
				for tr.Parent(a) != tr.Root() && a != tr.Root() {
					a = tr.Parent(a)
				}
				if a == tr.Children(tr.Root())[0] && len(tr.Clients(j)) > 0 {
					hot = append(hot, j)
				}
			}
			dp := solver(tr)
			c := goldenExp3
			for step := 0; step < 9; step++ {
				switch step {
				case 0:
				case 3: // a pre-existing server changes its initial mode
					j := ex.Nodes()[src.IntN(ex.Count())]
					ex.Set(j, 3-ex.Mode(j))
				case 5:
					dp.Reset(tr)
				case 6:
					ex.Reset()
				case 7:
					ex.Set(1+src.IntN(tr.N()-1), 2)
				default:
					for k := 0; k < 2 && len(hot) > 0; k++ {
						j := hot[src.IntN(len(hot))]
						tr.SetDemand(j, src.IntN(len(tr.Clients(j))), src.Between(1, 5))
					}
				}
				if step == 8 {
					c = goldenFig11
				}
				prob := PowerProblem{Tree: tr, Existing: ex, Power: c.pm, Cost: c.cm}
				if s := digest(dp, c, prob); s != nil {
					checkPowerCold(t, s, c, prob)
				}
			}
		}
	}
	if compressedRows == 0 {
		t.Fatal("no corpus tree ran a merge on runs")
	}
	if got := h.Sum64(); got != powerGoldenHash {
		t.Fatalf("power golden digest %#x, want %#x", got, uint64(powerGoldenHash))
	}
}

// checkPowerCold checks a drifted solver's answers against a fresh
// PowerDP on the same instance: the same front, and the same
// placement, cost and power at every front point and every bound.
func checkPowerCold(t *testing.T, s *PowerSolver, c powerGoldenCase, prob PowerProblem) {
	t.Helper()
	cold, err := NewPowerDP(prob.Tree).Solve(prob)
	if err != nil {
		t.Fatal(err)
	}
	want, got := cold.Front(), s.Front()
	if !slices.Equal(want, got) {
		t.Fatalf("front %v, cold %v", got, want)
	}
	same := func(a, b *PowerResult) bool {
		return a.Cost == b.Cost && a.Power == b.Power && a.Placement.Equal(b.Placement)
	}
	for i := range want {
		if g, w := s.At(i), cold.At(i); !same(g, w) {
			t.Fatalf("front point %d: %v, cold %v", i, g.Placement, w.Placement)
		}
	}
	for _, b := range c.bounds {
		g, gok := s.Best(b)
		w, wok := cold.Best(b)
		if gok != wok || gok && !same(g, w) {
			t.Fatalf("bound %v: %v, cold %v", b, g, w)
		}
	}
}
