package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"replicatree/internal/cost"
	"replicatree/internal/failure"
	"replicatree/internal/rng"
	"replicatree/internal/tree"
)

// minCostGoldenHash is the FNV-64a digest of every result
// TestMinCostGolden computes. A change to it means MinCost-WithPre now
// answers differently: a placement, a cost, a reused/new split or a
// solve's error outcome.
const minCostGoldenHash = 0x3eed3f7b2343653d

// goldenCosts cycles the reconfiguration prices of the chained
// sequences: the paper's cheap update, free moves, and deletions dear
// enough (Delete > 1) that keeping an idle pre-existing server pays.
var goldenCosts = []cost.Simple{
	{Create: 0.1, Delete: 0.01},
	{Create: 0.5, Delete: 2},
	{},
	{Create: 1, Delete: 1.5},
}

// TestMinCostGolden pins the exact output of MinCostSolver over chained
// drift sequences, the paper's update strategy: every solve takes the
// previous solve's placement as its pre-existing set. The corpus holds
// paper-sized fat and high trees with demand edits, capacity changes
// (some infeasible) and the goldenCosts prices; the same trees under a
// drifting fault mask; and one 10^4-node ScalePreset chain, the size
// of the perfbench chain-1e4 workload. Every sequence runs through one
// reused solver at one and four workers. It digests placements, cost
// bits, server splits and error texts, never the work counters, so any
// rewrite of the merge kernels must leave the digest unchanged.
func TestMinCostGolden(t *testing.T) {
	h := fnv.New64a()
	var buf []byte
	failed, reused := 0, 0
	put := func(vs ...uint64) {
		buf = buf[:0]
		for _, v := range vs {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
		h.Write(buf)
	}
	// chain runs steps chained solves on tr, calling edit before each,
	// and digests every outcome.
	chain := func(tr *tree.Tree, workers, steps int, existing *tree.Replicas, mask tree.FaultMask, edit func(step int) (W int, c cost.Simple)) {
		s := NewMinCostSolver(tr)
		s.SetWorkers(workers)
		defer s.SetWorkers(1)
		s.SetMask(mask)
		dst := tree.ReplicasOf(tr)
		for step := 0; step < steps; step++ {
			W, c := edit(step)
			res, err := s.SolveInto(existing, W, c, dst)
			if err != nil {
				h.Write([]byte(err.Error()))
				failed++
				continue
			}
			if res.Reused > 0 {
				reused++
			}
			put(math.Float64bits(res.Cost), uint64(res.Servers), uint64(res.Reused), uint64(res.New))
			for j := 0; j < tr.N(); j++ {
				put(uint64(res.Placement.Mode(j)))
			}
			existing, dst = dst, existing
		}
	}

	for _, workers := range []int{1, 4} {
		// Chained drift on paper trees, starting from a random
		// pre-existing set.
		for i := 0; i < 30; i++ {
			src := rng.Derive(171, i)
			tr := tree.MustGenerate(reuseGen(i), src)
			ex, err := tree.RandomReplicas(tr, 1+src.IntN(tr.N()/3), 1, src)
			if err != nil {
				t.Fatal(err)
			}
			W := 10
			chain(tr, workers, 10, ex, nil, func(step int) (int, cost.Simple) {
				driftClients(tr, src.IntN(4), src)
				if step%4 == 3 {
					W = 8 + src.IntN(5)
				}
				return W, goldenCosts[(i+step)%len(goldenCosts)]
			})
		}

		// The same shapes under a drifting fault mask.
		for i := 0; i < 15; i++ {
			src := rng.Derive(173, i)
			tr := tree.MustGenerate(reuseGen(i), src)
			mask := failure.NewMask(tr.N())
			W := 10
			chain(tr, workers, 10, tree.ReplicasOf(tr), mask, func(step int) (int, cost.Simple) {
				crashStep(mask, tr.N(), src)
				if step%3 == 2 {
					driftClients(tr, 2, src)
				}
				if step == 6 {
					W = 12
				}
				return W, goldenCosts[(i+step)%len(goldenCosts)]
			})
		}

		// The chain-1e4 instance: a cold pre-free tick, then chained
		// ticks of 8 demand edits each, with one capacity change.
		src := rng.New(2011)
		tr := tree.MustGenerate(tree.ScalePreset(10_000), src)
		chain(tr, workers, 6, tree.ReplicasOf(tr), nil, func(step int) (int, cost.Simple) {
			driftClients(tr, 8, src)
			if step >= 4 {
				return 90, goldenCosts[0]
			}
			return 100, goldenCosts[0]
		})
	}
	if failed == 0 || reused == 0 {
		t.Fatalf("corpus has %d failed and %d reusing solves, want both", failed, reused)
	}
	if got := h.Sum64(); got != minCostGoldenHash {
		t.Fatalf("mincost golden digest %#x, want %#x", got, uint64(minCostGoldenHash))
	}
}
