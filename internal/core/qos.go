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
// Every table is a bpTable, the breakpoint form MinCostSolver uses:
// one run row per requirement L along the replica count r. A cell
// whose flow exceeds W counts as infeasible. No ancestor could absorb
// it, since every equipped ancestor checks own + a <= W, so dropping it
// changes no answer. With it dropped, every row obeys the monotone-row
// contract by theorem: equipping one more node of a subtree whose
// escaping flow is at most W keeps that node's load at most W, and it
// never raises the escape or tightens the requirement. So one run
// kernel folds every child, and no dense form is kept. Each fold step's
// output is retained per node: it is the next step's input, a fold
// restart point, and what the reconstruction rebuilds splits from.

// MinReplicasQoS returns a replica set of minimal cardinality serving
// every client under the closest policy with uniform capacity W, every
// client within its QoS bound and every link within its bandwidth
// (every replica at mode 1). A nil constraint set solves the classical
// problem (and then agrees with greedy.MinReplicas, which the tests
// check). It returns ErrInfeasible when no placement at all serves the
// instance.
//
// Time is O(N²·H) in the worst case (H the tree height), the
// polynomial bound of the paper, and also O(N·H·W²): a table row holds
// at most W+1 runs whatever the subtree's size.
//
// MinReplicasQoS builds a fresh solver per call; hot loops sweeping
// many constraint sets on the same tree should hold a QoSSolver
// instead.
func MinReplicasQoS(t *tree.Tree, W int, c *tree.Constraints) (*tree.Replicas, error) {
	return NewQoSSolver(t).Solve(W, c, nil)
}

// QoSSolver solves constrained replica-counting instances on one tree.
// Every node's fold-step outputs and final table live in retained
// per-node buffers, grown monotonically to the high-water mark of past
// solves, so after two warm-up solves of an instance shape every
// further Solve with a caller-owned destination performs no heap
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
	dpDriver
	eng           *tree.Engine
	unconstrained *tree.Constraints

	// Per node, retained across solves: the output of every fold step
	// (steps[j] has one table per child of j, D+1 rows for D =
	// depth(j)) and the node's final table (max(D-1, 0)+1 rows, dimN
	// the replica capacity of the subtree including the node).
	steps [][]bpTable
	tabs  []bpTable
	// zero is the accumulator row entering every node's first fold
	// step: no replica below, no flow.
	zero [1]bpRun

	// Incremental bookkeeping.
	lastW    int
	lastC    *tree.Constraints
	lastCGen uint64

	// Per solve:
	w int
	c *tree.Constraints
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
	s.steps = grownKeep(s.steps, n)
	for j := 0; j < n; j++ {
		s.steps[j] = grownKeep(s.steps[j], len(t.Children(j)))
	}
	s.tabs = grownKeep(s.tabs, n)
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

	// The root sits at depth 0, so its table has one row, and every
	// feasible root cell holds 0: the first run starts at the least
	// replica count.
	root := t.Root()
	row := s.tabs[root].row(0)
	if len(row) == 0 {
		return nil, fmt.Errorf("core: %w", ErrInfeasible)
	}
	s.build(dst, root, row[0].start, 0)
	// The tables are exact by construction; re-validate as a cheap
	// guard against implementation drift.
	if err := s.eng.ValidateUniformConstrained(dst, tree.PolicyClosest, W, c); err != nil {
		return nil, fmt.Errorf("core: MinReplicasQoS produced an invalid placement (bug): %w", err)
	}
	return dst, nil
}

// solveNode rebuilds node j's table from its children's with worker
// w's scratch.
//
// Fold restart point (see dpDriver.foldStart): the knapsack merge
// never reads node j's own demand (only the closures do), so a node
// dirtied by its own clients alone replays no fold step, and a dirty
// child restarts the fold at its position from the preceding step's
// retained output.
func (s *QoSSolver) solveNode(j, w int) error {
	sc := &s.bps[w]
	kids := s.t.Children(j)
	for st := s.foldStart(j, w, kids, false); st < len(kids); st++ {
		s.merge(j, st, kids[st], sc, &s.mstats[w])
	}
	s.applyClosures(j, sc)
	return nil
}

// stepIn returns row L of the accumulator entering fold step st of
// node j, and the row's last cell: the empty fold's zero cell for the
// first step, the previous step's output otherwise. Step len(kids) is
// the finished fold. A cell (r, L) holds the least sum of child flows
// using r replicas below, with every child bound <= L and every child
// link within its bandwidth.
func (s *QoSSolver) stepIn(j, st int, L int32) ([]bpRun, int32) {
	if st == 0 {
		return s.zero[:], 0
	}
	acc := &s.steps[j][st-1]
	return acc.row(L), acc.dimN
}

// underBandwidth drops the leading runs of a child row above the
// child link's bandwidth bw (negative: unconstrained). The link carries
// the child's whole escaping flow, and a monotone row's values only
// fall along it, so the cells the link cannot carry are exactly the
// leading runs.
func underBandwidth(b []bpRun, bw int64) []bpRun {
	for bw >= 0 && len(b) > 0 && b[0].val > bw {
		b = b[1:]
	}
	return b
}

// merge runs fold step st of node j, the knapsack merge of child ch
// into the accumulator: for every requirement L, the min-plus
// convolution of acc row L with the child's row L under the link's
// bandwidth, capped at W. Each row holds at most W+1 runs whatever its
// width, so the step costs a function of run counts.
func (s *QoSSolver) merge(j, st, ch int, sc *bpScratch, ms *mergeStats) {
	c := &s.tabs[ch] // D+1 rows, like the accumulator
	_, accN := s.stepIn(j, st, 0)
	dimN := accN + c.dimN
	bw := int64(s.c.Bandwidth(ch))
	staged := beginTable(sc.accRuns, c.dimE)
	for L := int32(0); L <= c.dimE; L++ {
		a, _ := s.stepIn(j, st, L)
		if b := underBandwidth(c.row(L), bw); len(a) > 0 && len(b) > 0 {
			ms.cells += len(a) + len(b)
			ms.rows += 2
			staged = append(staged, bpConv(a, b, int64(s.w), dimN, sc)...)
		}
		endRow(staged, c.dimE, L)
	}
	keepTable(&s.steps[j][st], c.dimE, dimN, staged)
	sc.accRuns = staged[:0]
}

// applyClosures writes node j's final table from its finished fold
// with the node's two closures, taking their pointwise minimum per
// row:
//
//   - equip j: the whole traversing flow is absorbed here, so nothing
//     escapes and no requirement remains (own clients are 1 hop away,
//     within any positive QoS bound). That is a zero run from
//     equipFrom(j);
//   - let the flow pass, only while every contributing client
//     tolerates a server at depth <= D-1 (rows L >= ownL): acc row L
//     plus j's own demand, dropping the runs pushed above W. The root
//     has no ancestor, so there passing is only "nothing to pass".
//
// Equipping wins ties, as build assumes.
func (s *QoSSolver) applyClosures(j int, sc *bpScratch) {
	t := s.t
	kids := len(t.Children(j))
	D := int32(t.Depth(j))
	dimE := max(D-1, 0)
	_, accN := s.stepIn(j, kids, 0)
	own := int64(t.ClientSum(j))
	ownL := int32(0) // minimal server depth the node's own clients tolerate
	for k, dem := range t.Clients(j) {
		if dem > 0 {
			ownL = max(ownL, int32(s.c.MinServerDepth(j, k, int(D))))
		}
	}
	var eq [1]bpRun
	equip := eq[:0]
	if e := s.equipFrom(j); e <= accN+1 {
		eq[0].start = e
		equip = eq[:]
	}
	staged := beginTable(sc.accRuns, dimE)
	for L := int32(0); L <= dimE; L++ {
		a, _ := s.stepIn(j, kids, L)
		pass := sc.ch[:0]
		switch {
		case j == t.Root():
			if own == 0 && len(a) > 0 && a[len(a)-1].val == 0 {
				pass = append(pass, a[len(a)-1])
			}
		case L >= ownL:
			for _, run := range a {
				if v := own + run.val; v <= int64(s.w) {
					pass = append(pass, bpRun{start: run.start, val: v})
				}
			}
		}
		row := envMin(equip, pass, sc.tmp)
		staged = append(staged, row...)
		endRow(staged, dimE, L)
		sc.ch, sc.tmp = pass[:0], row[:0]
	}
	keepTable(&s.tabs[j], dimE, accN+1, staged)
	sc.accRuns = staged[:0]
}

// equipFrom returns the least replica count at which node j can be
// equipped: one past the first cell of its finished fold's row D whose
// flow fits beside j's own clients (the acc row is monotone, so every
// later cell fits too), or past the table's end when none does.
func (s *QoSSolver) equipFrom(j int) int32 {
	a, accN := s.stepIn(j, len(s.t.Children(j)), int32(s.t.Depth(j)))
	room := int64(s.w) - int64(s.t.ClientSum(j))
	for _, run := range a {
		if run.val <= room {
			return run.start + 1
		}
	}
	return accN + 2
}

// split returns the acc cell r1 that cell (r, L) of fold step st of
// node j came from, child ch taking the other r-r1 replicas: the one a
// dense knapsack scan would have recorded. That scan visits r1
// ascending and keeps the first strict improvement, so the split is the
// least r1 reaching the cell's value v. Every acc run above v is
// beaten, and within a run the matching child cells form one interval
// of the monotone child row (see MinCostSolver.decide).
func (s *QoSSolver) split(j, st, ch int, r, L int32) int32 {
	v := bpAt(s.steps[j][st].row(L), r)
	if v >= bpInfVal {
		panic(fmt.Sprintf("core: reconstruction reached infeasible cell (%d,%d) at node %d step %d", r, L, j, st))
	}
	a, accN := s.stepIn(j, st, L)
	c := &s.tabs[ch]
	b := underBandwidth(c.row(L), int64(s.c.Bandwidth(ch)))
	for p := range a {
		rs, va := a[p].start, a[p].val
		if va > v {
			continue
		}
		re := accN
		if p+1 < len(a) {
			re = a[p+1].start - 1
		}
		if cl, cr, ok := runSpan(b, v-va, c.dimN); ok {
			if lo, hi := max(rs, r-cr), min(re, r-cl); lo <= hi {
				return lo
			}
		}
	}
	panic(fmt.Sprintf("core: no split for cell (%d,%d) at node %d step %d", r, L, j, st))
}

// build reconstructs the placement behind cell (r, L) of node j's
// table into res. j is equipped exactly when r lies in its equip run:
// the dense closures write the equip option first and the pass option
// only on a strict improvement, and no flow beats the equip run's 0.
// The fold steps are then unwound last to first, each handing its
// child the replicas split leaves it.
func (s *QoSSolver) build(res *tree.Replicas, j int, r, L int32) {
	if r >= s.equipFrom(j) {
		res.Set(j, 1)
		r, L = r-1, int32(s.t.Depth(j))
	}
	kids := s.t.Children(j)
	for st := len(kids) - 1; st >= 0; st-- {
		r1 := s.split(j, st, kids[st], r, L)
		s.build(res, kids[st], r-r1, L)
		r = r1
	}
	if r != 0 {
		panic(fmt.Sprintf("core: reconstruction reached invalid base %d at node %d", r, j))
	}
}
