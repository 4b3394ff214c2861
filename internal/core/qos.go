package core

import (
	"fmt"

	"replicatree/internal/tree"
)

// This file implements the polynomial-time exact algorithm of
// Rehn-Sonigo, "Optimal Replica Placement in Tree Networks with QoS and
// Bandwidth Constraints and the Closest Allocation Policy" (arXiv
// 0706.3350): minimal replica counting under the closest policy with
// per-client QoS (distance) bounds and per-link bandwidths.
//
// The dynamic program exploits the closest policy's structure: all flow
// escaping a subtree is absorbed at the same node — the first equipped
// proper ancestor of the subtree's root. A subtree state is therefore
// fully described by (replicas used, escaped flow, depth requirement),
// where the requirement is the minimal depth the absorbing ancestor may
// have without violating any contributing client's QoS bound. For a
// fixed replica count and requirement, less escaped flow is always at
// least as good (capacity, bandwidth and downstream sums are all
// monotone in it), so each node keeps one table
//
//	tab[r][L] = minimal escaped flow of the subtree using r replicas,
//	            requiring the first equipped proper ancestor to sit at
//	            depth >= some bound <= L
//
// built bottom-up with a knapsack merge over the children (checking
// each child link's bandwidth as its flow crosses) and two closures per
// node: equip it (all traversing flow absorbed, load <= W, nothing
// escapes) or let the flow pass (possible only while every contributing
// client's QoS still tolerates a higher server).
//
// Every per-node table is a flat row-major slice (row r at offset
// r*rowWidth, the same index-addressed layout the shape type gives the
// power tables) held in a retained buffer so it can carry over to the
// next solve; only the knapsack-merge intermediates live in the
// solver's per-solve arena.

const qInf = int(1) << 60

const (
	qNone uint8 = iota
	qEquip
	qEscape
)

// MinReplicasQoS returns a replica set of minimal cardinality serving
// every client under the closest policy with uniform capacity W, every
// client within its QoS bound and every link within its bandwidth
// (every replica at mode 1). A nil constraint set solves the classical
// problem (and then agrees with greedy.MinReplicas, which the tests
// check). It returns ErrInfeasible when no placement at all serves the
// instance.
//
// Time and memory are O(N²·H) in the worst case (H the tree height),
// the polynomial bound of the paper: comfortably fast on the
// evaluation's 100-node trees, but not intended for degenerate
// path-shaped instances with thousands of nodes.
//
// MinReplicasQoS builds a fresh solver per call; hot loops sweeping
// many constraint sets on the same tree should hold a QoSSolver
// instead.
func MinReplicasQoS(t *tree.Tree, W int, c *tree.Constraints) (*tree.Replicas, error) {
	return NewQoSSolver(t).Solve(W, c, nil)
}

// QoSSolver solves constrained replica-counting instances on one tree.
// Merge intermediates live in a flat arena and every node's tables in
// retained per-node buffers, all grown monotonically to the high-water
// mark of past solves, so after two warm-up solves of an instance shape
// every further Solve with a caller-owned destination performs no heap
// allocation.
//
// The retained tables make solves incremental: demand edits through
// tree.Tree.SetDemand dirty only the touched node's ancestor chain,
// while a different capacity W or constraint set (a different
// *tree.Constraints, or the same one mutated — detected through
// Constraints.Generation) invalidates every table. Use Invalidate
// after mutations the solver cannot observe, and Reset to rebind it to
// another tree while keeping its buffers.
//
// A solver is not safe for concurrent use; run one per goroutine.
type QoSSolver struct {
	dpDriver[int]
	eng           *tree.Engine
	unconstrained *tree.Constraints

	// Per node, retained across solves: replica capacity of the subtree
	// including the node, its flat tab/choice block ((size+1) rows of
	// width max(depth-1,0)+1), and — indexed by the CHILD's id — the
	// flat split table of the merge that folded that child into its
	// parent (rows of width depth(child), the parent's accumulator
	// width), plus the compressed fold-step snapshots (likewise indexed
	// by the child's id).
	size    []int
	tabs    [][]int
	choices [][]uint8
	splits  [][]int
	qsteps  []qStep

	// Incremental bookkeeping.
	lastW    int
	lastC    *tree.Constraints
	lastCGen uint64

	// Per solve:
	w int
	c *tree.Constraints
}

// qStep is the retained snapshot of one compressed knapsack fold step
// (the merge of one child into its parent's accumulator): breakpoint
// runs of every requirement column of the accumulator before (inRuns)
// and after (outRuns) the merge, concatenated with per-column offsets.
// comp marks whether the step's last run was compressed; dense steps
// record their splits in QoSSolver.splits instead, compressed ones
// reconstruct them lazily (lazySplit) and restart partial fold replays
// from their output snapshot.
type qStep struct {
	comp    bool
	inOff   []int32
	inRuns  []bpRun
	outOff  []int32
	outRuns []bpRun
}

// NewQoSSolver returns a reusable constrained-counting solver for t.
func NewQoSSolver(t *tree.Tree) *QoSSolver {
	s := &QoSSolver{}
	s.init(s.solveNode, nil, cancelStride)
	s.Reset(t)
	return s
}

// Reset rebinds the solver to tree t, keeping every retained buffer as
// scratch for the new tree, so sweeping many trees of similar shape
// through one solver skips most warm-up allocations. The first solve
// after a Reset recomputes every table.
func (s *QoSSolver) Reset(t *tree.Tree) {
	n := t.N()
	if s.eng == nil {
		s.eng = tree.NewEngine(t)
	} else {
		s.eng.Reset(t)
	}
	if s.unconstrained == nil {
		s.unconstrained = tree.NewConstraints(t)
	} else {
		s.unconstrained.Reset(t)
	}
	s.size = grown(s.size, n)
	s.tabs = grownKeep(s.tabs, n)
	s.choices = grownKeep(s.choices, n)
	s.splits = grownKeep(s.splits, n)
	s.qsteps = grownKeep(s.qsteps, n)
	s.lastC = nil
	s.bind(t)
}

// Solve runs the dynamic program for capacity W under constraints c
// (nil = unconstrained) and writes the minimal placement into dst
// (allocated fresh when nil; reset first otherwise). The returned set
// is dst.
func (s *QoSSolver) Solve(W int, c *tree.Constraints, dst *tree.Replicas) (*tree.Replicas, error) {
	t := s.t
	if W <= 0 {
		return nil, fmt.Errorf("core: non-positive capacity %d", W)
	}
	if err := c.Validate(t); err != nil {
		return nil, err
	}
	if c == nil {
		c = s.unconstrained
	}
	if dst == nil {
		dst = tree.ReplicasOf(t)
	} else {
		if dst.N() != t.N() {
			return nil, fmt.Errorf("core: destination set covers %d nodes, tree has %d", dst.N(), t.N())
		}
		dst.Reset()
	}
	s.w, s.c = W, c

	// Demands dirty their ancestor chain; a different capacity or
	// constraint set reshapes every table. Constraint identity is the
	// pointer plus its mutation generation, so in-place edits between
	// solves are caught too.
	s.markDirty(W != s.lastW || c != s.lastC || c.Generation() != s.lastCGen)
	if err := s.run(); err != nil {
		// Cancelled between checkpoints: nothing was committed, so the
		// next solve re-dirties and recomputes a superset of the
		// interrupted work (see cancel.go).
		return nil, err
	}

	s.lastW, s.lastC, s.lastCGen = W, c, c.Generation()
	s.commit()

	root := t.Root()
	rootTab := s.tabs[root] // width 1: the root sits at depth 0
	best := -1
	for r := 0; r <= s.size[root]; r++ {
		if rootTab[r] == 0 {
			best = r
			break
		}
	}
	if best < 0 {
		return nil, fmt.Errorf("core: %w", ErrInfeasible)
	}
	s.build(dst, root, best, 0)
	// The tables are exact by construction; re-validate as a cheap
	// guard against implementation drift.
	if err := s.eng.ValidateUniformConstrained(dst, tree.PolicyClosest, W, c); err != nil {
		return nil, fmt.Errorf("core: MinReplicasQoS produced an invalid placement (bug): %w", err)
	}
	return dst, nil
}

// tabRows returns the row width of node j's tab/choice block: an
// escaping flow must be absorbed by a proper ancestor, so requirements
// live in 0..max(depth(j)-1, 0).
func (s *QoSSolver) tabRows(j int) int { return max(s.t.Depth(j)-1, 0) + 1 }

// solveNode rebuilds node j's table from its children's, carving
// knapsack-merge intermediates out of worker w's arena.
func (s *QoSSolver) solveNode(j, w int) error {
	ar, sc, ms := &s.arenas[w], &s.bps[w], &s.mstats[w]
	t := s.t
	D := t.Depth(j)
	kids := t.Children(j)
	accRows := D + 1 // child requirements live in 0..D

	// Fold restart point (see dpDriver.foldStart). The knapsack merge
	// never reads node j's own demand (only the closures below do), so
	// a node dirtied by its own clients alone replays zero fold steps,
	// and a dirty child restarts the fold at its position, decoding the
	// preceding step's retained output snapshot as the accumulator.
	start := s.foldStart(j, w, kids, false, func(q int) bool { return s.qsteps[kids[q]].comp })

	// Knapsack merge of the children: acc cell (r, L) is the
	// minimal sum of child flows using r replicas below, every
	// child bound <= L and every child link within its bandwidth.
	// Every child's tab block has row width accRows too (its depth
	// is D+1), so rows align without re-indexing.
	var acc []int
	sz := 0
	if start == 0 {
		acc = ar.alloc(accRows) // the single r = 0 row, all zero
		for L := range acc {
			acc[L] = 0
		}
	} else {
		for _, ch := range kids[:start] {
			sz += s.size[ch]
		}
		prev := &s.qsteps[kids[start-1]]
		acc = ar.alloc((sz + 1) * accRows)
		for L := 0; L < accRows; L++ {
			decodeRunsIntStrided(prev.outRuns[prev.outOff[L]:prev.outOff[L+1]],
				acc[L:], sz+1, accRows, qInf)
		}
	}
	for st := start; st < len(kids); st++ {
		child := kids[st]
		csz := s.size[child]
		bw := s.c.Bandwidth(child)
		ctab := s.tabs[child]
		next := ar.alloc((sz + csz + 1) * accRows)
		step := &s.qsteps[child]
		if sz+csz+1 >= minDenseWidth &&
			s.mergeColumns(step, acc, ctab, next, sz, csz, accRows, bw, sc, ms) {
			acc = next
			sz += csz
			continue
		}
		step.comp = false
		ms.cells += (sz + 1) * (csz + 1) * accRows
		for i := range next {
			next[i] = qInf
		}
		// Stale split cells are never read: build only follows
		// cells whose next value was written when the parent's
		// table was last rebuilt, and every value write refreshes
		// its split.
		s.splits[child] = grown(s.splits[child], (sz+csz+1)*accRows)
		spl := s.splits[child]
		for r1 := 0; r1 <= sz; r1++ {
			for r2 := 0; r2 <= csz; r2++ {
				o := (r1 + r2) * accRows
				for L := 0; L < accRows; L++ {
					a := acc[r1*accRows+L]
					f := ctab[r2*accRows+L]
					if a >= qInf || f >= qInf || (bw >= 0 && f > bw) {
						continue
					}
					if v := a + f; v < next[o+L] {
						next[o+L] = v
						spl[o+L] = r2
					}
				}
			}
		}
		acc = next
		sz += csz
	}
	s.size[j] = sz + 1

	own := t.ClientSum(j)
	ownL := 0 // minimal server depth the node's own clients tolerate
	for k, dem := range t.Clients(j) {
		if dem > 0 {
			if l := s.c.MinServerDepth(j, k, D); l > ownL {
				ownL = l
			}
		}
	}

	rows := s.tabRows(j)
	s.tabs[j] = grown(s.tabs[j], (s.size[j]+1)*rows)
	s.choices[j] = grown(s.choices[j], (s.size[j]+1)*rows)
	tab, ch := s.tabs[j], s.choices[j]
	for r := 0; r <= s.size[j]; r++ {
		o := r * rows
		for L := 0; L < rows; L++ {
			tab[o+L] = qInf
		}
		// Equip j: the whole traversing flow is absorbed here, so
		// nothing escapes and no requirement remains (own clients
		// are 1 hop away, within any positive QoS bound).
		if r >= 1 {
			if a := acc[(r-1)*accRows+D]; a < qInf && own+a <= s.w {
				for L := 0; L < rows; L++ {
					tab[o+L] = 0
					ch[o+L] = qEquip
				}
			}
		}
		// Let the flow pass: only while every contributing client
		// tolerates a server at depth <= D-1.
		if j != t.Root() {
			for L := ownL; L < rows && r <= sz; L++ {
				if a := acc[r*accRows+L]; a < qInf {
					if f := own + a; f < tab[o+L] {
						tab[o+L] = f
						ch[o+L] = qEscape
					}
				}
			}
		} else if own == 0 && r <= sz && acc[r*accRows] == 0 && tab[o] > 0 {
			// The root has no ancestor: passing is only "nothing to
			// pass".
			tab[o] = 0
			ch[o] = qEscape
		}
	}
	return nil
}

// mergeColumns runs one knapsack fold step on breakpoints: every
// requirement column of the accumulator and of the (bandwidth-
// filtered) child table is encoded, convolved with bpConv, decoded
// into the dense next block, and the input/output runs are retained in
// step for lazy split reconstruction and partial fold replays. The
// bandwidth filter is a run-prefix drop: child column values decrease
// with the replica count, so the cells over the link's bandwidth are
// exactly the leading runs. Returns false — sending the caller to the
// dense kernel — when any column violates the monotone contract.
func (s *QoSSolver) mergeColumns(step *qStep, acc, ctab, next []int, sz, csz, accRows, bw int, sc *bpScratch, ms *mergeStats) bool {
	step.inOff = grown(step.inOff, accRows+1)
	inRuns := step.inRuns[:0]
	for L := 0; L < accRows; L++ {
		step.inOff[L] = int32(len(inRuns))
		runs, ok := encodeRunsIntStrided(acc[L:], sz+1, accRows, qInf, sc.tmp)
		sc.tmp = runs
		if !ok {
			step.inRuns = inRuns
			return false
		}
		inRuns = append(inRuns, runs...)
	}
	step.inOff[accRows] = int32(len(inRuns))
	step.inRuns = inRuns

	sc.cols = grown(sc.cols, accRows+1)
	colRuns := sc.colRuns[:0]
	for L := 0; L < accRows; L++ {
		sc.cols[L] = int32(len(colRuns))
		runs, ok := encodeRunsIntStrided(ctab[L:], csz+1, accRows, qInf, sc.tmp)
		sc.tmp = runs
		if !ok {
			sc.colRuns = colRuns
			return false
		}
		if bw >= 0 {
			for len(runs) > 0 && runs[0].val > int64(bw) {
				runs = runs[1:]
			}
		}
		colRuns = append(colRuns, runs...)
	}
	sc.cols[accRows] = int32(len(colRuns))
	sc.colRuns = colRuns

	step.outOff = grown(step.outOff, accRows+1)
	outRuns := step.outRuns[:0]
	for L := 0; L < accRows; L++ {
		step.outOff[L] = int32(len(outRuns))
		aR := step.inRuns[step.inOff[L]:step.inOff[L+1]]
		cR := sc.colRuns[sc.cols[L]:sc.cols[L+1]]
		var res []bpRun
		if len(aR) > 0 && len(cR) > 0 {
			// Sums at or past qInf are infeasible in the dense kernel
			// (they never beat the qInf fill), so cap them out here.
			res = bpConv(aR, cR, int64(qInf)-1, int32(sz+csz), sc)
		}
		ms.cells += len(aR) + len(cR) + len(res)
		outRuns = append(outRuns, res...)
		decodeRunsIntStrided(res, next[L:], sz+csz+1, accRows, qInf)
	}
	step.outOff[accRows] = int32(len(outRuns))
	step.outRuns = outRuns
	step.comp = true
	ms.rows += 2 * accRows
	return true
}

// lazySplit reconstructs the split the dense kernel would have
// recorded for output cell (rp, L) of child's compressed fold step:
// the dense loop visits the cell's candidate splits in ascending r1 =
// rp - r2 order and keeps the first strict improvement, so the
// recorded r2 belongs to the smallest r1 achieving the cell's final
// value. pre is the replica capacity of the accumulator the step
// merged into (the sum of the preceding children's sizes).
func (s *QoSSolver) lazySplit(child, rp, L, accRows, pre int) int {
	step := &s.qsteps[child]
	v := bpAt(step.outRuns[step.outOff[L]:step.outOff[L+1]], int32(rp))
	if v >= bpInfVal {
		panic(fmt.Sprintf("core: reconstruction reached infeasible cell (%d,%d) at child %d", rp, L, child))
	}
	inR := step.inRuns[step.inOff[L]:step.inOff[L+1]]
	ctab := s.tabs[child]
	csz := s.size[child]
	bw := s.c.Bandwidth(child)
	cFirst := firstFeasibleStrided(ctab, L, csz, accRows)
	for p := range inR {
		rs, va := inR[p].start, inR[p].val
		if va > v {
			continue // every candidate of this run is beaten
		}
		re := int32(pre)
		if p+1 < len(inR) {
			re = inR[p+1].start - 1
		}
		cvT := v - va
		if bw >= 0 && cvT > int64(bw) {
			continue // the dense kernel drops over-bandwidth flows
		}
		cl, cr, ok := valueRunStrided(ctab, L, cFirst, int32(csz), accRows, cvT)
		if !ok {
			continue
		}
		if lo, hi := max(rs, int32(rp)-cr), min(re, int32(rp)-cl); lo <= hi {
			return rp - int(lo)
		}
	}
	panic(fmt.Sprintf("core: no split for cell (%d,%d) at child %d", rp, L, child))
}

// firstFeasibleStrided returns the first replica count whose cell in
// column L of a monotone strided block is feasible (csz+1 when none).
func firstFeasibleStrided(tab []int, L, csz, stride int) int32 {
	lo, hi := int32(0), int32(csz+1)
	for lo < hi {
		mid := (lo + hi) >> 1
		if tab[int(mid)*stride+L] >= qInf {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// valueRunStrided locates the replica-count interval [cl, cr] of
// column L holding exactly value v, searching the feasible region
// [first, last] of the monotone strided block.
func valueRunStrided(tab []int, L int, first, last int32, stride int, v int64) (cl, cr int32, ok bool) {
	lo, hi := first, last+1
	for lo < hi {
		mid := (lo + hi) >> 1
		if int64(tab[int(mid)*stride+L]) <= v {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo > last || int64(tab[int(lo)*stride+L]) != v {
		return 0, 0, false
	}
	cl = lo
	hi = last + 1
	for lo < hi {
		mid := (lo + hi) >> 1
		if int64(tab[int(mid)*stride+L]) < v {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return cl, lo - 1, true
}

// build reconstructs the placement behind tab cell (r, L) of node j
// into res.
func (s *QoSSolver) build(res *tree.Replicas, j, r, L int) {
	kids := s.t.Children(j)
	accRows := s.t.Depth(j) + 1
	accR, accRow := r, L
	if s.choices[j][r*s.tabRows(j)+L] == qEquip {
		res.Set(j, 1)
		accR, accRow = r-1, s.t.Depth(j)
	}
	pre := 0
	for _, child := range kids {
		pre += s.size[child]
	}
	for i := len(kids) - 1; i >= 0; i-- {
		child := kids[i]
		pre -= s.size[child]
		var r2 int
		if s.qsteps[child].comp {
			r2 = s.lazySplit(child, accR, accRow, accRows, pre)
		} else {
			r2 = s.splits[child][accR*accRows+accRow]
		}
		s.build(res, child, r2, accRow)
		accR -= r2
	}
}
