package core

import (
	"hash/fnv"
	"testing"

	"replicatree/internal/rng"
	"replicatree/internal/tree"
)

// qosGoldenHash is the FNV-64a digest of every result TestQoSGolden
// computes. A change to it means the QoS DP now answers differently: a
// placement or a solve's error outcome.
const qosGoldenHash = 0x4fa576199c7ea251

// TestQoSGolden pins the exact output of QoSSolver over chained drift
// sequences on paper fat and high trees: demand edits, capacity changes
// (small enough that some solves are infeasible and many subtree flows
// exceed W), uniform QoS bound changes, in-place bandwidth edits (which
// advance the constraint set's generation) and solves with a nil
// constraint set; plus one 10^4-node ScalePreset chain. Every
// sequence runs through one reused solver at one and four workers. It
// digests placements and error texts, never the work counters, so any
// rewrite of the merge kernels must leave the digest unchanged.
func TestQoSGolden(t *testing.T) {
	h := fnv.New64a()
	failed, solved := 0, 0
	// chain runs steps chained solves on tr, calling edit before each,
	// and digests every outcome.
	chain := func(tr *tree.Tree, workers, steps int, edit func(step int) (int, *tree.Constraints)) {
		s := NewQoSSolver(tr)
		s.SetWorkers(workers)
		defer s.SetWorkers(1)
		dst := tree.ReplicasOf(tr)
		for step := 0; step < steps; step++ {
			W, c := edit(step)
			res, err := s.Solve(W, c, dst)
			if err != nil {
				h.Write([]byte(err.Error()))
				failed++
				continue
			}
			solved++
			h.Write([]byte(res.String()))
		}
	}

	for _, workers := range []int{1, 4} {
		for i := 0; i < 40; i++ {
			src := rng.Derive(191, i)
			tr := tree.MustGenerate(reuseGen(i), src)
			cons := tree.NewConstraints(tr)
			cons.SetUniformQoS(tr, 4)
			W := 10
			chain(tr, workers, 12, func(step int) (int, *tree.Constraints) {
				driftClients(tr, src.IntN(4), src)
				switch step % 6 {
				case 1:
					cons.SetUniformQoS(tr, 2+src.IntN(4))
				case 2:
					W = 4 + src.IntN(12)
				case 3:
					// Constrain a few links and free one: an in-place
					// edit the solver sees only through the generation.
					for b := 0; b < 3; b++ {
						cons.SetBandwidth(1+src.IntN(tr.N()-1), 3+src.IntN(12))
					}
					cons.SetBandwidth(1+src.IntN(tr.N()-1), tree.NoBandwidthLimit)
				case 5:
					return W, nil
				}
				return W, cons
			})
		}

		// A 10^4-node chain (height 5) with 8 demand edits per step:
		// binding QoS bounds, a few bandwidth caps, one nil set and one
		// capacity change.
		src := rng.New(2011)
		tr := tree.MustGenerate(tree.ScalePreset(10_000), src)
		cons := tree.NewConstraints(tr)
		cons.SetUniformQoS(tr, 3)
		chain(tr, workers, 6, func(step int) (int, *tree.Constraints) {
			driftClients(tr, 8, src)
			switch step {
			case 2:
				for b := 0; b < 20; b++ {
					cons.SetBandwidth(1+src.IntN(tr.N()-1), 10+src.IntN(40))
				}
			case 3:
				return 100, nil
			case 4:
				cons.SetUniformQoS(tr, 4)
			case 5:
				return 30, cons
			}
			return 100, cons
		})
	}
	if failed == 0 || solved == 0 {
		t.Fatalf("corpus has %d failed and %d solved solves, want both", failed, solved)
	}
	if got := h.Sum64(); got != qosGoldenHash {
		t.Fatalf("qos golden digest %#x, want %#x (%d solved, %d failed)", got, uint64(qosGoldenHash), solved, failed)
	}
}
