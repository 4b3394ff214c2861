package core

import (
	"fmt"
	"math"
	"testing"

	"replicatree/internal/cost"
	"replicatree/internal/power"
	"replicatree/internal/rng"
	"replicatree/internal/tree"
)

// pUnreached marks the cells of a dense table with no feasible
// solution. Valid entries are at most W_M, so any value above wm is
// "unreached".
const pUnreached = int32(math.MaxInt32)

// decodeTable expands the run table tab of shape sh into the dense
// dst, filling every cell outside the rows' runs with pUnreached.
func decodeTable(tab bpTable, sh shape, nM int, dst []int32, ar *arena[int32]) {
	for i := range dst[:sh.size] {
		dst[i] = pUnreached
	}
	L, S := sh.dims[nM], sh.strides[nM]
	var o odometer
	rowOdometer(&o, sh, nM, sh.strides, ar)
	for r := int32(0); r < int32(sh.size)/L; r++ {
		runs := tab.row(r)
		eff := L - newDigits(o.coords, nM)
		for p := range runs {
			end := eff
			if p+1 < len(runs) {
				end = runs[p+1].start
			}
			for k := runs[p].start; k < end; k++ {
				dst[o.out+k*S] = int32(runs[p].val)
			}
		}
		o.next()
	}
}

// denseMergeOracle is the straightforward dense power merge, the
// reference of the run kernel: for every reached accumulated cell it
// steps a child odometer across every cell of the child table and
// skips the unreached ones. The first writer of a cell's minimal value
// wins, which by scan order is the smallest (accumulated cell, child
// cell) pair — the packProv order. It fills out and prov in full.
func denseMergeOracle(d *PowerDP, ch int, acc []int32, accShape shape, chVals []int32, chShape, outShape shape, out []int32, prov []uint64) {
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
	ao := newOdometer(accShape.dims, outShape.strides)
	co := newOdometer(chShape.dims, outShape.strides)
	for aFlat := 0; aFlat < accShape.size; aFlat++ {
		if a := acc[aFlat]; a <= d.wm {
			co.reset()
			for cFlat := 0; cFlat < chShape.size; cFlat++ {
				if cv := chVals[cFlat]; cv <= d.wm {
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
}

// denseTable decodes a run table of d into a fresh dense table.
func denseTable(d *PowerDP, tab bpTable, sh shape) []int32 {
	var ar arena[int32]
	out := make([]int32, sh.size)
	decodeTable(tab, sh, d.M-1, out, &ar)
	return out
}

// oracleTally counts what checkRunMerges compared.
type oracleTally struct {
	steps     int // merge steps compared cell for cell
	leafKids  int // of which merged a leaf child
	modeMOnly int // of which had reached child cells only mode M can carry
	preModes  int // bit m: some decision equips a pre-existing child at mode m
}

// checkRunMerges runs every fold step of d's last solve through
// denseMergeOracle on the dense decoding of the step's run inputs, and
// compares, cell for cell, the step's run output decoded dense with the
// oracle's values and lazyProv of every reached cell with the oracle's
// provenance (off-front cells included, which no front or placement
// digest pins). Since every step's input is the previous step's
// checked output, the whole fold matches the dense fold.
func checkRunMerges(t *testing.T, d *PowerDP, label string, tally *oracleTally) {
	t.Helper()
	tr := d.t
	sol := PowerSolver{prob: d.prob, powerTables: d.powerTables}
	for j := 0; j < tr.N(); j++ {
		for st, ch := range tr.Children(j) {
			acc, accSh := d.stepIn(j, st)
			c, chSh := d.final(ch)
			chVals := denseTable(d, c, chSh)
			out := &d.steps[j][st]
			want := make([]int32, out.sh.size)
			wantProv := make([]uint64, out.sh.size)
			denseMergeOracle(d, ch, denseTable(d, acc, accSh), accSh, chVals, chSh, out.sh, want, wantProv)
			got := denseTable(d, out.tab, out.sh)
			where := fmt.Sprintf("%s: node %d step %d (child %d)", label, j, st, ch)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: out[%d] = %d, oracle %d", where, i, got[i], want[i])
				}
				if p := sol.lazyProv(j, st, int32(i)); p != wantProv[i] {
					t.Fatalf("%s: lazyProv(%d) = %#x, oracle %#x", where, i, p, wantProv[i])
				}
				if _, _, m := unpackProv(wantProv[i]); wantProv[i] != noProv && m != 0 && d.prob.Existing.Has(ch) {
					tally.preModes |= 1 << m
				}
			}
			tally.steps++
			if len(tr.Children(ch)) == 0 {
				tally.leafKids++
			}
			for _, cv := range chVals {
				if d.M > 1 && int(cv) > d.prob.Power.Cap(d.M-1) && cv <= d.wm {
					tally.modeMOnly++
					break
				}
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

// TestRunMergeMatchesOracle checks every merge step of seeded solves
// against denseMergeOracle (see checkRunMerges). It covers one to three
// modes, fat and high trees with and without pre-existing servers
// (pre-existing children equipped at every mode), fanout-1 chains, leaf
// children, child tables whose reached values only mode M can carry,
// incremental re-solves and a solve after a Reset.
func TestRunMergeMatchesOracle(t *testing.T) {
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
				checkRunMerges(t, dp, label, &tally)
			}
		}
		if tally.steps == 0 || tally.leafKids == 0 || M > 1 && tally.modeMOnly == 0 || tally.preModes != 1<<(M+1)-2 {
			t.Fatalf("M=%d: oracle coverage %+v", M, tally)
		}
	}
}
