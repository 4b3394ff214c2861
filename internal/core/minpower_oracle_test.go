package core

import (
	"fmt"
	"testing"

	"replicatree/internal/cost"
	"replicatree/internal/power"
	"replicatree/internal/rng"
	"replicatree/internal/tree"
)

// denseMergeOracle is the straightforward dense power merge: for every
// reached accumulated cell it steps a child odometer across every cell
// of the child table and skips the unreached ones. It fills out and prov
// in full and returns the number of (accumulated, child) pairs of
// reached cells it evaluated.
func denseMergeOracle(d *PowerDP, ch int, acc []int32, accShape, outShape shape, out []int32, prov []uint64) int {
	chShape, chVals := d.shapes[ch], d.vals[ch]
	chMode0 := int(d.prob.Existing.Mode(ch))
	for i := range out {
		out[i], prov[i] = pUnreached, noProv
	}
	placeBump := make([]int32, d.M+1)
	for m := 1; m <= d.M; m++ {
		if chMode0 == 0 {
			placeBump[m] = outShape.strides[d.fieldNew(m)]
		} else {
			placeBump[m] = outShape.strides[d.fieldReuse(chMode0, m)]
		}
	}
	update := func(idx int32, v int32, p uint64) {
		if v < out[idx] {
			out[idx] = v
			prov[idx] = p
		}
	}
	pairs := 0
	ao := newOdometer(accShape.dims, outShape.strides)
	co := newOdometer(chShape.dims, outShape.strides)
	for aFlat := 0; aFlat < accShape.size; aFlat++ {
		if a := acc[aFlat]; a <= d.wm {
			co.reset()
			for cFlat := 0; cFlat < chShape.size; cFlat++ {
				if cv := chVals[cFlat]; cv <= d.wm {
					pairs++
					base := ao.out + co.out
					if a+cv <= d.wm {
						update(base, a+cv, packProv(aFlat, cFlat, 0))
					}
					if minMode, ok := d.prob.Power.ModeFor(int(cv)); ok {
						for m := minMode; m <= d.M; m++ {
							update(base+placeBump[m], a, packProv(aFlat, cFlat, uint8(m)))
						}
					}
				}
				co.next()
			}
		}
		ao.next()
	}
	return pairs
}

// oracleTally counts what checkDenseMerges compared.
type oracleTally struct {
	steps     int // dense merge steps compared cell for cell
	leafKids  int // of which merged a leaf child
	modeMOnly int // of which had reached child cells only mode M carries
}

// checkDenseMerges re-folds every internal node of d's last solve in
// child order, running each merge step through mergeInto and
// through denseMergeOracle on identical inputs. It compares the merged
// values cell for cell on every step, provenance and the work count on
// every dense step, and the re-folded final table with the solve's.
func checkDenseMerges(t *testing.T, d *PowerDP, label string, tally *oracleTally) {
	t.Helper()
	tr := d.t
	var ar arena[int32]
	var sc bpScratch
	for j := 0; j < tr.N(); j++ {
		kids := tr.Children(j)
		if len(kids) == 0 {
			continue
		}
		accPre := make([]int32, d.M)
		accNew := int32(0)
		dims := make([]int32, d.nf)
		d.nodeDims(dims, accNew, accPre)
		accShape, err := newShape(dims)
		if err != nil {
			t.Fatal(err)
		}
		acc := []int32{int32(tr.ClientSum(j))}
		for st, ch := range kids {
			outNew, outPre, outShape, err := d.childDims(ch, accNew, accPre, &ar)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]int32, outShape.size)
			wantProv := make([]uint64, outShape.size)
			pairs := denseMergeOracle(d, ch, acc, accShape, outShape, want, wantProv)
			got := make([]int32, outShape.size)
			var ms mergeStats
			d.mergeInto(j, st, ch, acc, accShape, outShape, got, &ar, &sc, &ms)
			step := &d.steps[j][st]
			where := fmt.Sprintf("%s: node %d step %d (child %d)", label, j, st, ch)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: out[%d] = %d, oracle %d", where, i, got[i], want[i])
				}
				if !step.comp && step.prov[i] != wantProv[i] {
					t.Fatalf("%s: prov[%d] = %#x, oracle %#x", where, i, step.prov[i], wantProv[i])
				}
			}
			if !step.comp {
				if ms.cells != pairs {
					t.Fatalf("%s: counted %d merge cells, oracle evaluated %d pairs", where, ms.cells, pairs)
				}
				tally.steps++
				if len(tr.Children(ch)) == 0 {
					tally.leafKids++
				}
				if d.M > 1 {
					for _, cv := range d.vals[ch][:d.shapes[ch].size] {
						if int(cv) > d.prob.Power.Cap(d.M-1) && cv <= d.wm {
							tally.modeMOnly++
							break
						}
					}
				}
			}
			acc, accShape, accNew = got, outShape, outNew
			copy(accPre, outPre)
		}
		final := d.vals[j][:d.shapes[j].size]
		if len(acc) != len(final) {
			t.Fatalf("%s: node %d re-folded to %d cells, solve kept %d", label, j, len(acc), len(final))
		}
		for i := range final {
			if acc[i] != final[i] {
				t.Fatalf("%s: node %d re-folded cell %d = %d, solve kept %d", label, j, i, acc[i], final[i])
			}
		}
	}
}

// oracleChain builds a fanout-1 path of n nodes with one client of
// 1..maxReq requests on every node, so subtree loads soon exceed every
// capacity but W_M.
func oracleChain(src *rng.Source, n, maxReq int) *tree.Tree {
	b := tree.NewBuilder()
	node := b.Root()
	for i := 0; i < n; i++ {
		b.AddClient(node, src.Between(1, maxReq))
		if i < n-1 {
			node = b.AddNode(node)
		}
	}
	return b.MustBuild()
}

// TestDenseMergeMatchesOracle compares every dense power merge step of
// seeded solves with denseMergeOracle cell for cell: values, the
// provenance of every cell (off-front cells included, which no front
// or placement digest pins) and the evaluated-pair count. It covers one
// to three modes, fat and high trees with and without pre-existing
// servers, fanout-1 chains, leaf children, child tables whose reached
// values only mode M can carry, incremental re-solves and a solve
// after a Reset.
func TestDenseMergeMatchesOracle(t *testing.T) {
	models := []power.Model{
		power.MustNew([]int{10}, 12.5, 3),
		powerModel2(),
		power.MustNew([]int{3, 6, 10}, 12.5, 3),
	}
	for _, pm := range models {
		M := pm.M()
		cm := cost.UniformModal(M, 0.1, 0.01, 0.001)
		var tally oracleTally
		for i := 0; i < 12; i++ {
			src := rng.Derive(uint64(40+M), i)
			var tr *tree.Tree
			switch n := []int{30, 24, 11}[M-1] + i%4; i % 3 {
			case 0:
				tr = tree.MustGenerate(tree.PowerConfig(n), src)
			case 1:
				c := tree.HighConfig(n)
				c.ReqMin, c.ReqMax = 1, 5
				tr = tree.MustGenerate(c, src)
			default:
				tr = oracleChain(src, n/2, 4)
			}
			ex, err := tree.RandomReplicas(tr, i%4, M, src)
			if err != nil {
				t.Fatal(err)
			}
			prob := PowerProblem{Existing: ex, Power: pm, Cost: cm}
			dp := NewPowerDP(tr)
			for step := 0; step < 3; step++ {
				label := fmt.Sprintf("M=%d tree %d step %d", M, i, step)
				switch step {
				case 1: // an incremental re-solve after demand edits
					driftClients(tr, 2, src)
				case 2: // a Reset, then a cold solve through the same buffers
					dp.Reset(tr)
				}
				if _, err := dp.Solve(prob); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				checkDenseMerges(t, dp, label, &tally)
			}
		}
		if tally.steps == 0 || tally.leafKids == 0 || M > 1 && tally.modeMOnly == 0 {
			t.Fatalf("M=%d: oracle coverage %+v", M, tally)
		}
	}
}
