package core

import (
	"fmt"
	"math"
	"slices"

	"replicatree/internal/cost"
	"replicatree/internal/tree"
)

// ErrInfeasible is returned when no placement can serve every client.
// It is the shared tree.ErrInfeasible sentinel, so it also matches the
// greedy and heuristic layers' infeasibility errors.
var ErrInfeasible = tree.ErrInfeasible

// MinCostResult is an optimal solution to MinCost-WithPre.
type MinCostResult struct {
	// Placement is the optimal replica set R (every replica at mode 1).
	Placement *tree.Replicas
	// Cost is the value of Equation (2) for the placement.
	Cost float64
	// Servers, Reused and New are R, e and R−e.
	Servers int
	Reused  int
	New     int
}

// MinCost solves the MinCost-WithPre problem (Theorem 1): find a replica
// placement for t under capacity W that serves every client with the
// closest policy and minimises
//
//	cost(R) = R + (R−e)·create + (E−e)·delete,
//
// where e is the number of reused servers of the pre-existing set. A nil
// existing set solves the classical MinCost-NoPre problem. The dynamic
// program is exact only under tree.PolicyClosest (see the package
// documentation); use BruteMinReplicasPolicy to cross-check other
// access policies on small trees. The worst
// case running time is O(N·(N−E+1)²·(E+1)²) = O(N⁵) as in the paper;
// subtree-bounded tables make typical instances far cheaper.
//
// MinCost builds a fresh solver per call; hot loops solving many
// instances on the same tree should hold a MinCostSolver instead.
func MinCost(t *tree.Tree, existing *tree.Replicas, W int, c cost.Simple) (*MinCostResult, error) {
	return NewMinCostSolver(t).Solve(existing, W, c)
}

// MinReplicaCount returns the minimal number of servers needed to serve
// every client with capacity W (the classical MinCost-NoPre objective).
func MinReplicaCount(t *tree.Tree, W int) (int, error) {
	res, err := MinCost(t, nil, W, cost.Simple{})
	if err != nil {
		return 0, err
	}
	return res.Servers, nil
}

// bpTable is a MinCost table in breakpoint form: for every count e of
// reused servers (0..dimE) one run row along the count n of new
// servers (0..dimN). A one-row table (dimE == 0) stores its row as
// runs; a wider one leads with dimE+2 header entries whose starts index
// the rows, row e being runs[runs[e].start:runs[e+1].start], so a table
// is one buffer. A cell holds the least load escaping the subtree with
// exactly e reused and n new servers inside it. Every row obeys the
// monotone-row contract by theorem (see the package documentation), so
// it needs no dense form. QoSSolver stores its tables the same way, one
// row per QoS requirement along the replica count, and PowerDP one row
// per combination of the fields other than n_M, along n_M.
type bpTable struct {
	dimE, dimN int32
	runs       []bpRun
}

func (t *bpTable) row(e int32) []bpRun {
	if t.dimE == 0 {
		return t.runs
	}
	return t.runs[t.runs[e].start:t.runs[e+1].start]
}

// beginTable starts staging a table of dimE+1 rows in buf, leading
// with the header of a multi-row table (see bpTable).
func beginTable(buf []bpRun, dimE int32) []bpRun {
	buf = buf[:0]
	if dimE > 0 {
		// Grown in place: the race detector's build would allocate an
		// appended make's temporary.
		buf = slices.Grow(buf, int(dimE)+2)[:dimE+2]
		buf[0].start = dimE + 2
	}
	return buf
}

// endRow closes row L of a table staged by beginTable.
func endRow(buf []bpRun, dimE, L int32) {
	if dimE > 0 {
		buf[L+1].start = int32(len(buf))
	}
}

// keepTable copies a staged table into t's retained buffer, which
// therefore grows at most once per solve.
func keepTable(t *bpTable, dimE, dimN int32, staged []bpRun) {
	t.dimE, t.dimN = dimE, dimN
	t.runs = grownSpare(t.runs, len(staged))
	copy(t.runs, staged)
}

// MinCostSolver solves MinCost-WithPre instances on one tree. Every
// node's fold-step outputs live in retained per-node buffers, grown
// monotonically to the high-water mark of past solves: once warmed up
// on the instances it cycles through, a Solve performs no heap
// allocation (use SolveInto with a caller-owned destination to avoid
// the result placement allocation too). A table's run count depends on
// its values, so an instance never seen before may grow a few buffers
// once.
//
// The retained tables make solves incremental. A solve reuses every
// cached subtree table whose inputs did not change since the previous
// solve and recomputes only the dirty ancestor chains: demand edits
// through tree.Tree.SetDemand (or any mutator that advances the demand
// generations) dirty the touched node upward, membership changes of
// the pre-existing set dirty the changed node's parent upward, and a
// different capacity W invalidates everything. The cost model never
// invalidates tables (only the root scan prices it), so sweeping costs
// over a static tree re-solves in O(root-table) time. Use Invalidate
// after mutating state the solver cannot observe, and Reset to rebind
// the solver to another tree while keeping its buffers.
//
// A solver is not safe for concurrent use; run one per goroutine.
type MinCostSolver struct {
	dpDriver
	empty *tree.Replicas // stands in for a nil existing set

	// Per node, retained across solves: the base cell (the requests of
	// the node's own clients) and the output table of every fold step
	// (steps[j] has one entry per child of j). A node's final table is
	// its last step's output, or its base cell for a leaf; every step's
	// output is also the next step's input and a fold restart point.
	base  []bpRun
	steps [][]bpTable

	// Incremental bookkeeping: the previous solve's pre-existing
	// membership and capacity.
	lastHas []bool
	lastW   int32

	// Fault-mask view (see SetMask): the mask read at the start of the
	// current solve, the previous solve's view for staleness diffing,
	// and the count of masked nodes for Stats.
	mask      tree.FaultMask
	downNow   []bool
	lastDown  []bool
	maskedCnt int

	// Per solve:
	existing  *tree.Replicas
	w         int32
	placement *tree.Replicas
}

// NewMinCostSolver returns a reusable solver for MinCost instances on t.
func NewMinCostSolver(t *tree.Tree) *MinCostSolver {
	s := &MinCostSolver{}
	s.init(s.solveNode, s.changed, cancelStride)
	s.Reset(t)
	return s
}

// Reset rebinds the solver to tree t, keeping every retained buffer as
// scratch for the new tree, so sweeping many trees of similar shape
// through one solver skips most warm-up allocations. The first solve
// after a Reset recomputes every table, even when t is the tree the
// solver was already bound to (which makes Reset(sameTree) an explicit
// full invalidation; see Invalidate for the cheaper flag-only form).
func (s *MinCostSolver) Reset(t *tree.Tree) {
	n := t.N()
	if s.empty == nil || s.empty.N() != n {
		s.empty = tree.NewReplicas(n)
	}
	s.base = grown(s.base, n)
	s.steps = grownKeep(s.steps, n)
	for j := 0; j < n; j++ {
		s.steps[j] = grownKeep(s.steps[j], len(t.Children(j)))
	}
	s.lastHas = grown(s.lastHas, n)
	s.downNow = grown(s.downNow, n)
	s.lastDown = grown(s.lastDown, n)
	s.bind(t)
}

// SetMask points the solver at a fault-mask view consulted at the start
// of every solve: a node the mask reports down cannot host a replica,
// while its clients' demand is unchanged — they still route to their
// nearest live equipped ancestor, so the returned placement stays valid
// under the closest policy both during and after the outage. Only
// NodeUp is consulted; link cuts are a routing concern the solver
// cannot hedge against (a placement inside a severed subtree would be
// sized for that subtree only, and invalid once the link returns).
// A nil mask (the default) restores the unmasked program.
//
// The mask is diffed like the pre-existing set: a node whose up/down
// state changed since the previous solve dirties its parent's chain
// only, so a crash or recovery re-solves in O(depth) tables. The mask
// is read once per solve; mutating it mid-solve is a race.
func (s *MinCostSolver) SetMask(m tree.FaultMask) { s.mask = m }

// Stats profiles the most recent completed solve: how many of the
// tree's node tables it actually recomputed (see SolveStats).
func (s *MinCostSolver) Stats() SolveStats {
	st := s.dpDriver.Stats()
	st.MaskedNodes = s.maskedCnt
	return st
}

// changed reports whether node j's pre-existing membership or fault
// state moved since the last commit: its parent's merge reads both, its
// own table neither.
func (s *MinCostSolver) changed(j int) bool {
	return s.lastHas[j] != s.existing.Has(j) || s.lastDown[j] != s.downNow[j]
}

// Solve runs the dynamic program and returns a freshly allocated
// result. See SolveInto for the allocation-free variant.
func (s *MinCostSolver) Solve(existing *tree.Replicas, W int, c cost.Simple) (*MinCostResult, error) {
	res, err := s.SolveInto(existing, W, c, nil)
	if err != nil {
		return nil, err
	}
	return &res, nil
}

// SolveInto runs the dynamic program and writes the optimal placement
// into dst (allocated fresh when nil; reset first otherwise). dst must
// not alias existing: the reconstruction reads the pre-existing set
// while writing the placement. The returned result's Placement field is
// dst.
func (s *MinCostSolver) SolveInto(existing *tree.Replicas, W int, c cost.Simple, dst *tree.Replicas) (MinCostResult, error) {
	t := s.t
	if existing == nil {
		existing = s.empty
	}
	if existing.N() != t.N() {
		return MinCostResult{}, fmt.Errorf("core: existing set covers %d nodes, tree has %d", existing.N(), t.N())
	}
	if dst != nil {
		if dst.N() != t.N() {
			return MinCostResult{}, fmt.Errorf("core: destination set covers %d nodes, tree has %d", dst.N(), t.N())
		}
		if dst == existing {
			return MinCostResult{}, fmt.Errorf("core: destination set aliases the existing set")
		}
	}
	if W <= 0 {
		return MinCostResult{}, fmt.Errorf("core: non-positive capacity %d", W)
	}
	if W > math.MaxInt32/4 {
		return MinCostResult{}, fmt.Errorf("core: capacity %d too large", W)
	}
	if err := c.Validate(); err != nil {
		return MinCostResult{}, err
	}
	if m := t.MaxClientSum(); m > W {
		return MinCostResult{}, fmt.Errorf("core: a node's clients demand %d > W=%d: %w", m, W, ErrInfeasible)
	}
	if s.mask != nil {
		if sz, ok := s.mask.(interface{ N() int }); ok && sz.N() < t.N() {
			return MinCostResult{}, fmt.Errorf("core: fault mask covers %d nodes, tree has %d", sz.N(), t.N())
		}
	}
	// dst is only touched once every input check has passed, so a
	// failed call leaves a reused destination's previous contents
	// intact.
	if dst == nil {
		dst = tree.ReplicasOf(t)
	} else {
		dst.Reset()
	}

	s.existing, s.w, s.placement = existing, int32(W), dst

	// Snapshot the mask before anything reads it: the staleness diff
	// below compares against the previous solve's snapshot.
	s.maskedCnt = 0
	for j := 0; j < t.N(); j++ {
		down := s.mask != nil && !s.mask.NodeUp(j)
		s.downNow[j] = down
		if down {
			s.maskedCnt++
		}
	}

	// Decide which cached tables survive: demands via generation
	// stamps, the pre-existing set and the fault mask by content diff
	// (see changed), W (which reshapes every table) by full
	// invalidation. The cost model only prices the root scan below.
	s.markDirty(s.w != s.lastW)
	if err := s.run(); err != nil {
		// Cancelled between checkpoints: the tables rebuilt so far are
		// exact, and nothing below was committed, so the next solve
		// re-dirties and recomputes a superset of the interrupted work.
		s.existing, s.placement = nil, nil
		return MinCostResult{}, err
	}

	// The tables now reflect the current inputs even if the root scan
	// finds the instance infeasible, so commit before scanning.
	s.lastW = s.w
	for j := 0; j < t.N(); j++ {
		s.lastHas[j] = existing.Has(j)
		s.lastDown[j] = s.downNow[j]
	}
	s.commit()

	res, err := s.scanRoot(c)
	s.existing, s.placement = nil, nil
	if err != nil {
		return MinCostResult{}, err
	}
	return res, nil
}

// solveNode rebuilds node j's table from its children's (Algorithms 2
// and 3) with worker w's scratch.
//
// A dirty node need not re-run its whole child fold: when its own
// demand is unchanged, the retained output of the step before the
// first stale child is the exact accumulator at that point, so only
// the fold suffix is re-merged (see dpDriver.foldStart). This is what
// turns a one-child drift under a high-fanout node from an
// O(children) re-fold into an O(suffix) one.
func (s *MinCostSolver) solveNode(j, w int) error {
	s.base[j] = bpRun{val: int64(s.t.ClientSum(j))}
	kids := s.t.Children(j)
	start := s.foldStart(j, w, kids, true)
	for st := start; st >= 0 && st < len(kids); st++ {
		s.merge(j, st, kids[st], &s.bps[w], &s.mstats[w])
	}
	return nil
}

// table returns node j's final table.
func (s *MinCostSolver) table(j int) bpTable {
	if st := s.steps[j]; len(st) > 0 {
		return st[len(st)-1]
	}
	return s.stepIn(j, 0)
}

// stepIn returns the accumulated table entering fold step st of node
// j: the base cell for the first step, the previous step's output
// otherwise.
func (s *MinCostSolver) stepIn(j, st int) bpTable {
	if st > 0 {
		return s.steps[j][st-1]
	}
	return bpTable{runs: s.base[j : j+1]}
}

// merge runs fold step st of node j: it combines the accumulated table
// with the final table of child ch, considering for every split the
// option of placing a replica on ch itself (Algorithm 3), and writes
// the step's retained output. Output row r folds every pair of an acc
// row ea and a child row ec = r-ea on runs, under the load cap W:
//
//   - a live new child adds bpPlaceMerge (the min-plus convolution,
//     plus equipping the child one cell past its first feasible one);
//   - a live pre-existing child adds bpConv, and equipping it adds acc
//     row ea, shifted to child row r-ea-1's first feasible cell;
//   - a down child cannot host a replica and adds bpConv only.
//
// Each row holds at most W+1 runs whatever its width, so the step
// costs a function of run counts, not of the dense table size.
func (s *MinCostSolver) merge(j, st, ch int, sc *bpScratch, ms *mergeStats) {
	acc, c := s.stepIn(j, st), s.table(ch)
	pre, down := s.existing.Has(ch), s.downNow[ch]
	out := &s.steps[j][st]
	out.dimE, out.dimN = acc.dimE+c.dimE, acc.dimN+c.dimN
	switch {
	case down:
		// The place option is dropped and neither axis grows.
	case pre:
		out.dimE++
	default:
		out.dimN++
	}
	w := int64(s.w)
	staged, row, spare := beginTable(sc.accRuns, out.dimE), sc.acc[:0], sc.tmp[:0]
	for r := int32(0); r <= out.dimE; r++ {
		row = row[:0]
		for ea := max(0, r-c.dimE-1); ea <= min(acc.dimE, r); ea++ {
			a := acc.row(ea)
			if len(a) == 0 {
				continue
			}
			if ec := r - ea; ec <= c.dimE {
				if b := c.row(ec); len(b) > 0 {
					ms.cells += len(a) + len(b)
					ms.rows += 2
					var f []bpRun
					if pre || down {
						f = bpConv(a, b, w, out.dimN, sc)
					} else {
						f = bpPlaceMerge(a, b, w, out.dimN, sc)
					}
					row, spare = envMinInto(row, f, spare)
				}
			}
			if pre && !down && r > ea {
				if b := c.row(r - ea - 1); len(b) > 0 {
					sh := bpShift(a, b[0].start, out.dimN, sc.ch)
					row, spare = envMinInto(row, sh, spare)
					sc.ch = sh[:0]
				}
			}
		}
		staged = append(staged, row...)
		endRow(staged, out.dimE, r)
	}
	keepTable(out, out.dimE, out.dimN, staged)
	sc.accRuns, sc.acc, sc.tmp = staged[:0], row[:0], spare[:0]
}

// decide reconstructs the decision behind cell (e, n) of fold step st
// of node j, the one a dense scan of the merge would have recorded:
// the acc cell (ea, na) it came from and whether the child is
// equipped. The dense scan visits acc cells in ascending (e, n) order,
// and for each the place option before the no-place option (the
// child cell it uses is one smaller along e or n), and overwrites only
// on a strict improvement; so the decision is the first candidate in
// that order achieving the cell's final value v. The runs make it
// directly computable: every candidate from an acc run above v is
// beaten, and within a run the matching child cells form one interval
// of a monotone child row.
func (s *MinCostSolver) decide(j, st, ch int, e, n int32) (ea, na int32, place bool) {
	out := s.steps[j][st]
	v := bpAt(out.row(e), n)
	if v >= bpInfVal {
		panic(fmt.Sprintf("core: reconstruction reached infeasible cell (%d,%d) at node %d", e, n, j))
	}
	acc, c := s.stepIn(j, st), s.table(ch)
	pre, down := s.existing.Has(ch), s.downNow[ch]
	// Equipping reaches (e, n) from child row pe at cell n-na-pn.
	pe, pn := e, int32(1)
	if pre {
		pe, pn = e-1, 0
	}
	for ea = max(0, e-c.dimE-1); ea <= min(acc.dimE, e); ea++ {
		var pRow, nRow []bpRun
		if ec := pe - ea; !down && ec >= 0 && ec <= c.dimE {
			pRow = c.row(ec)
		}
		if ec := e - ea; ec <= c.dimE {
			nRow = c.row(ec)
		}
		a := acc.row(ea)
		for p := range a {
			rs, va := a[p].start, a[p].val
			if va > v {
				continue
			}
			re := acc.dimN
			if p+1 < len(a) {
				re = a[p+1].start - 1
			}
			// Earliest na in [rs, re] whose place option hits n: the
			// child cell n-na-pn must be feasible.
			n1p := int32(-1)
			if va == v && len(pRow) > 0 {
				if lo, hi := max(rs, n-pn-c.dimN), min(re, n-pn-pRow[0].start); lo <= hi {
					n1p = lo
				}
			}
			// Earliest na whose no-place option hits n with the final
			// value: the child cell n-na must hold exactly v-va.
			n1n := int32(-1)
			if cl, cr, ok := runSpan(nRow, v-va, c.dimN); ok {
				if lo, hi := max(rs, n-cr), min(re, n-cl); lo <= hi {
					n1n = lo
				}
			}
			switch {
			case n1p >= 0 && (n1n < 0 || n1p <= n1n):
				return ea, n1p, true
			case n1n >= 0:
				return ea, n1n, false
			}
			// Later runs hold strictly larger na, so the first run with
			// any candidate owns the decision; keep scanning only on none.
		}
	}
	panic(fmt.Sprintf("core: no decision for cell (%d,%d) at node %d step %d", e, n, j, st))
}

// runSpan locates the cell interval [cl, cr] of a run row ending at
// cell last that holds exactly value x.
func runSpan(row []bpRun, x int64, last int32) (cl, cr int32, ok bool) {
	for p := range row {
		switch {
		case row[p].val == x:
			cr = last
			if p+1 < len(row) {
				cr = row[p+1].start - 1
			}
			return row[p].start, cr, true
		case row[p].val < x:
			return 0, 0, false
		}
	}
	return 0, 0, false
}

// scanRoot evaluates the root table with and without a replica on the
// root itself (Algorithm 4) and reconstructs the cheapest solution. In
// addition to the paper's branches, a pre-existing root may be kept as
// a server even when minr = 0, which is cheaper whenever delete > 1.
//
// Along a row the cost strictly rises with n (one more new server), so
// only two cells of a row can win: its first feasible cell, with the
// root equipped, and its first zero-load cell, without. They are
// considered in the order of a dense scan (e, then n, ascending; for
// one cell the unequipped option first), which keeps its first-found
// tie-breaks.
func (s *MinCostSolver) scanRoot(c cost.Simple) (MinCostResult, error) {
	r := s.t.Root()
	E := s.existing.Count()
	rootPre := s.existing.Has(r)
	rootUp := !s.downNow[r]
	tab := s.table(r)

	bestCost := math.Inf(1)
	bestE, bestN := int32(-1), int32(-1)
	bestPlaceRoot := false
	var bestServers, bestReused int

	consider := func(e, n int32, placeRoot bool) {
		servers := int(e) + int(n)
		reused := int(e)
		if placeRoot {
			servers++
			if rootPre {
				reused++
			}
		}
		cc := c.Of(servers, reused, E)
		if cc < bestCost {
			bestCost = cc
			bestE, bestN, bestPlaceRoot = e, n, placeRoot
			bestServers, bestReused = servers, reused
		}
	}

	for e := int32(0); e <= tab.dimE; e++ {
		row := tab.row(e)
		if len(row) == 0 {
			continue
		}
		first, last := row[0].start, row[len(row)-1]
		zero := last.val == 0
		if zero && last.start == first {
			consider(e, first, false)
		}
		if rootUp {
			consider(e, first, true)
		}
		if zero && last.start > first {
			consider(e, last.start, false)
		}
	}
	if bestE < 0 {
		return MinCostResult{}, fmt.Errorf("core: %w", ErrInfeasible)
	}

	if bestPlaceRoot {
		s.placement.Set(r, 1)
	}
	s.rebuild(r, bestE, bestN)
	return MinCostResult{
		Placement: s.placement,
		Cost:      bestCost,
		Servers:   bestServers,
		Reused:    bestReused,
		New:       bestServers - bestReused,
	}, nil
}

// rebuild unwinds the merge decisions of node j for target cell (e, n),
// equipping children along the way and recursing into their subtrees.
func (s *MinCostSolver) rebuild(j int, e, n int32) {
	kids := s.t.Children(j)
	for st := len(kids) - 1; st >= 0; st-- {
		ch := kids[st]
		ea, na, place := s.decide(j, st, ch, e, n)
		ce, cn := e-ea, n-na
		if place {
			s.placement.Set(ch, 1)
			if s.existing.Has(ch) {
				ce--
			} else {
				cn--
			}
		}
		s.rebuild(ch, ce, cn)
		e, n = ea, na
	}
	if e != 0 || n != 0 {
		panic(fmt.Sprintf("core: reconstruction reached invalid base (%d,%d) at node %d", e, n, j))
	}
}
