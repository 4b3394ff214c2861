package core

import (
	"fmt"
	"math"

	"replicatree/internal/cost"
	"replicatree/internal/tree"
)

// ErrInfeasible is returned when no placement can serve every client.
// It is the shared tree.ErrInfeasible sentinel, so it also matches the
// greedy and heuristic layers' infeasibility errors.
var ErrInfeasible = tree.ErrInfeasible

const invalid = int32(-1)

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

// mcDec records, for one cell of a post-merge table, where its value
// came from: the cell of the accumulated table before the merge and
// whether a replica was placed on the merged child.
type mcDec struct {
	ePrev, nPrev int32
	place        bool
}

// mcStep is the decision table produced by merging one child. A step
// run by the dense kernel stores one mcDec per output cell; a step run
// by the compressed kernel (comp) stores breakpoint snapshots of its
// accumulator input (inRuns) and output (runs) instead — decisions are
// reconstructed lazily from the snapshots (see lazyDec), and the
// output snapshot doubles as the restart point for partial fold
// replays (see solveNode).
type mcStep struct {
	dimE, dimN int32
	decs       []mcDec
	comp       bool
	inRuns     []bpRun
	runs       []bpRun
}

// MinCostSolver solves MinCost-WithPre instances on one tree. Merge
// intermediates live in a flat arena and every node's final table and
// reconstruction back-pointers in retained per-node buffers, all grown
// monotonically to the high-water mark of past solves: after two
// warm-up solves of an instance shape every further Solve performs no
// heap allocation (use SolveInto with a caller-owned destination to
// avoid the result placement allocation too).
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
	dpDriver[int32]
	empty *tree.Replicas // stands in for a nil existing set

	// Per node, retained across solves: final table (vals), its
	// dimensions, and the per-merge decision tables for reconstruction
	// (steps[j] has exactly one entry per child of j).
	vals  [][]int32
	dimE  []int32
	dimN  []int32
	steps [][]mcStep

	// Server-count cap for mega trees (see serverCap): table cells
	// with more than capB new servers are provably never optimal, so
	// the n dimension of every table is clamped to capB, turning the
	// O(N²) worst-case merge volume into O(N·capB). 0 means uncapped.
	capB     int32
	lastCapB int32
	escUB    []int32 // scratch for the greedy feasibility pass

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
	s.vals = grownKeep(s.vals, n)
	s.dimE = grown(s.dimE, n)
	s.dimN = grown(s.dimN, n)
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

	// Snapshot the mask before anything reads it: updateCap's greedy
	// feasibility pass must avoid down hosts, and the staleness diff
	// below compares against the previous solve's snapshot.
	s.maskedCnt = 0
	for j := 0; j < t.N(); j++ {
		down := s.mask != nil && !s.mask.NodeUp(j)
		s.downNow[j] = down
		if down {
			s.maskedCnt++
		}
	}
	s.updateCap(c)

	// Decide which cached tables survive: demands via generation
	// stamps, the pre-existing set and the fault mask by content diff
	// (see changed), W and the cap (both reshape every table) by full
	// invalidation. The cost model only prices the root scan below.
	s.markDirty(s.w != s.lastW || s.capB != s.lastCapB)
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
	s.lastCapB = s.capB
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
// and 3) using worker w's arena and scratch.
//
// A dirty node need not re-run its whole child fold: when its own
// demand is unchanged and the fold prefix up to the first stale child
// ran compressed last time, the prefix's retained output snapshot is
// the exact accumulator at that point, so only the fold suffix is
// re-merged (see dpDriver.foldStart). This is what turns a one-child
// drift under a high-fanout node from an O(children) re-fold into an
// O(suffix) one.
func (s *MinCostSolver) solveNode(j, w int) error {
	ar, sc, ms := &s.arenas[w], &s.bps[w], &s.mstats[w]
	kids := s.t.Children(j)
	start := s.foldStart(j, w, kids, nil, true, func(q int) bool { return s.steps[j][q].comp })
	var acc []int32
	var accE, accN int32
	switch {
	case start < 0:
		return nil
	case len(kids) == 0:
		// A leaf's final table is the single base cell (0,0) holding
		// the requests of j's own clients (Algorithm 2).
		s.vals[j] = grown(s.vals[j], 1)
		s.vals[j][0] = int32(s.t.ClientSum(j))
	case start == 0:
		acc = ar.alloc(1)
		acc[0] = int32(s.t.ClientSum(j))
	default:
		prev := &s.steps[j][start-1]
		accE, accN = prev.dimE, prev.dimN
		acc = ar.alloc(int(accN) + 1)
		decodeRuns32(prev.runs, acc, invalid)
	}
	for st := start; st < len(kids); st++ {
		acc, accE, accN = s.merge(j, st, kids[st], acc, accE, accN, st == len(kids)-1, ar, sc, ms)
	}
	s.dimE[j], s.dimN[j] = accE, accN
	return nil
}

// merge combines the accumulated table of node j (dimensions accE×accN,
// exclusive upper bounds accE+1 and accN+1 on coordinates) with the
// final table of child ch — the st-th child of j — considering for
// every split the option of placing a replica on ch itself (Algorithm
// 3). The last merge writes straight into j's retained final table;
// earlier ones use arena intermediates. The new-server dimension is
// clamped to capB when the cap is active: a dropped cell holds more
// than capB new servers, its every completion costs more than capB
// lives... see serverCap for why such cells are never optimal, and
// note the clamp is monotone (a parent cell at n draws only on child
// cells at n' <= n), so the kept cells are exact.
func (s *MinCostSolver) merge(j, st, ch int, acc []int32, accE, accN int32, last bool, ar *arena[int32], sc *bpScratch, ms *mergeStats) ([]int32, int32, int32) {
	chE, chN := s.dimE[ch], s.dimN[ch]
	chVals := s.vals[ch]
	childPre := s.existing.Has(ch)
	chDown := s.downNow[ch]

	outE := accE + chE
	outN := accN + chN
	switch {
	case chDown:
		// A down child cannot host a replica, so the place option is
		// dropped and neither axis grows on its account.
	case childPre:
		outE++
	default:
		outN++
	}
	if b := s.capB; b > 0 && outN > b {
		outN = b
	}
	cells := int(outE+1) * int(outN+1)
	var out []int32
	if last {
		s.vals[j] = grown(s.vals[j], cells)
		out = s.vals[j]
	} else {
		out = ar.alloc(cells)
	}
	step := &s.steps[j][st]
	step.dimE, step.dimN = outE, outN
	// Wide single-row merges (no pre-existing axis on either side, live
	// child — the breakpoint kernel always folds the place option) run
	// on breakpoints; everything else takes the dense kernel below.
	if accE == 0 && chE == 0 && !childPre && !chDown && int(outN)+1 >= minDenseWidth &&
		s.mergeCompressed(step, acc, chVals, out, accN, chN, outN, sc, ms) {
		return out, outE, outN
	}
	step.comp = false
	ms.cells += int(accE+1) * int(accN+1) * int(chE+1) * int(chN+1)
	for i := range out {
		out[i] = invalid
	}
	// Stale decision cells are never read: the reconstruction only
	// follows cells whose value was written when the table was last
	// rebuilt, and every value write refreshes its decision.
	step.decs = grown(step.decs, cells)
	decs := step.decs
	ostride := outN + 1

	update := func(e, n, v int32, dec mcDec) {
		if n > outN { // beyond the server-count cap; never optimal
			return
		}
		idx := e*ostride + n
		if out[idx] == invalid || v < out[idx] {
			out[idx] = v
			decs[idx] = dec
		}
	}

	for e := int32(0); e <= accE; e++ {
		for n := int32(0); n <= accN; n++ {
			a := acc[e*(accN+1)+n]
			if a == invalid {
				continue
			}
			dec := mcDec{ePrev: e, nPrev: n}
			decP := mcDec{ePrev: e, nPrev: n, place: true}
			// Past outN - n every cell this child row could write lies
			// beyond the cap; skipping the range outright (rather than
			// letting update reject cell by cell) halves the work of
			// the capB-wide merges at the top of a mega tree.
			ncHi := chN
			if lim := outN - n; lim < ncHi {
				ncHi = lim
			}
			for ec := int32(0); ec <= chE; ec++ {
				for nc := int32(0); nc <= ncHi; nc++ {
					cv := chVals[ec*(chN+1)+nc]
					if cv == invalid {
						continue
					}
					// No replica on ch: its traversing requests join ours
					// and must still fit one upstream server.
					if a+cv <= s.w {
						update(e+ec, n+nc, a+cv, dec)
					}
					// Replica on ch absorbs cv (cv <= W by construction),
					// unless the fault mask holds ch down.
					switch {
					case chDown:
					case childPre:
						update(e+ec+1, n+nc, a, decP)
					default:
						update(e+ec, n+nc+1, a, decP)
					}
				}
			}
		}
	}

	return out, outE, outN
}

// mergeCompressed runs one fold step on breakpoints: encode both input
// rows, fold them with bpPlaceMerge, decode into the dense output row.
// The dense tables around the kernel are untouched — children are read
// dense, the output lands dense — so the root scan, the incremental
// bookkeeping and the parallel pass see exactly the representation
// they always did. Returns false (leaving out unwritten) when either
// input row fails the monotone-contract check, which sends the caller
// to the dense kernel; compression is therefore exact unconditionally.
func (s *MinCostSolver) mergeCompressed(step *mcStep, acc, chVals, out []int32, accN, chN, outN int32, sc *bpScratch, ms *mergeStats) bool {
	aRuns, okA := encodeRuns32(acc[:accN+1], invalid, sc.acc)
	sc.acc = aRuns
	if !okA {
		return false
	}
	cRuns, okC := encodeRuns32(chVals[:chN+1], invalid, sc.ch)
	sc.ch = cRuns
	if !okC {
		return false
	}
	ms.cells += len(aRuns) + len(cRuns)
	ms.rows += 2
	var res []bpRun
	if len(aRuns) > 0 && len(cRuns) > 0 {
		res = bpPlaceMerge(aRuns, cRuns, int64(s.w), outN, sc)
	}
	step.comp = true
	step.inRuns = append(step.inRuns[:0], aRuns...)
	step.runs = append(step.runs[:0], res...)
	decodeRuns32(res, out[:outN+1], invalid)
	return true
}

// lazyDec reconstructs the decision of cell (0, k) of compressed step
// st of node j: the decision the dense kernel would have recorded. The
// dense merge writes cells in acc-coordinate order (n1 ascending; for
// equal n1 the place option lands before the no-place option, its
// child coordinate being one smaller) and only overwrites on a strict
// improvement, so the recorded decision is the first candidate in that
// order achieving the cell's final value. The snapshots make that
// candidate directly computable: acc runs partition n1 into disjoint
// ascending intervals, every candidate from a run with value above the
// cell's is beaten, and within a run the matching child cells form one
// interval of the (monotone, still retained) dense child row.
func (s *MinCostSolver) lazyDec(j, st int, step *mcStep, ch int, k int32) mcDec {
	v := bpAt(step.runs, k)
	if v >= bpInfVal {
		panic(fmt.Sprintf("core: reconstruction reached infeasible cell (0,%d) at node %d", k, j))
	}
	chVals := s.vals[ch]
	chN := s.dimN[ch]
	cFirst := firstFeasible32(chVals[:chN+1])
	accN := int32(0)
	if st > 0 {
		accN = s.steps[j][st-1].dimN
	}
	noPlaceOK := v <= int64(s.w)
	inRuns := step.inRuns
	for p := range inRuns {
		rs, va := inRuns[p].start, inRuns[p].val
		if va > v {
			continue // every candidate of this run is beaten
		}
		re := accN
		if p+1 < len(inRuns) {
			re = inRuns[p+1].start - 1
		}
		// Earliest n1 in [rs, re] whose place option hits k: the child
		// cell k-1-n1 must be feasible (within [cFirst, chN]).
		n1p := int32(-1)
		if va == v {
			if lo, hi := max(rs, k-1-chN), min(re, k-1-cFirst); lo <= hi {
				n1p = lo
			}
		}
		// Earliest n1 whose no-place option hits k with the final
		// value: the child cell k-n1 must hold exactly v-va.
		n1n := int32(-1)
		if noPlaceOK {
			if cl, cr, ok := valueRun32(chVals, cFirst, chN, int32(v-va)); ok {
				if lo, hi := max(rs, k-cr), min(re, k-cl); lo <= hi {
					n1n = lo
				}
			}
		}
		switch {
		case n1p >= 0 && (n1n < 0 || n1p <= n1n):
			return mcDec{nPrev: n1p, place: true}
		case n1n >= 0:
			return mcDec{nPrev: n1n}
		}
		// Later runs hold strictly larger n1, so the first run with any
		// candidate owns the decision; keep scanning only on none.
	}
	panic(fmt.Sprintf("core: no decision for cell (0,%d) at node %d step %d", k, j, st))
}

// firstFeasible32 returns the index of the first non-invalid cell of a
// monotone row (its length when the whole row is infeasible).
func firstFeasible32(row []int32) int32 {
	lo, hi := 0, len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if row[mid] == invalid {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return int32(lo)
}

// valueRun32 locates the cell interval [cl, cr] of a monotone row
// holding exactly value v, searching the feasible region [first, last].
func valueRun32(row []int32, first, last, v int32) (cl, cr int32, ok bool) {
	lo, hi := first, last+1
	for lo < hi {
		mid := (lo + hi) >> 1
		if row[mid] <= v {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo > last || row[lo] != v {
		return 0, 0, false
	}
	cl = lo
	hi = last + 1
	for lo < hi {
		mid := (lo + hi) >> 1
		if row[mid] < v {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return cl, lo - 1, true
}

// scanRoot evaluates every root-table cell with and without a replica on
// the root itself (Algorithm 4) and reconstructs the cheapest solution.
// In addition to the paper's branches, a pre-existing root may be kept
// as a server even when minr = 0, which is cheaper whenever delete > 1.
func (s *MinCostSolver) scanRoot(c cost.Simple) (MinCostResult, error) {
	r := s.t.Root()
	E := s.existing.Count()
	rootPre := s.existing.Has(r)
	dimE, dimN := s.dimE[r], s.dimN[r]
	vals := s.vals[r]

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

	rootUp := !s.downNow[r]
	for e := int32(0); e <= dimE; e++ {
		for n := int32(0); n <= dimN; n++ {
			v := vals[e*(dimN+1)+n]
			if v == invalid {
				continue
			}
			if v == 0 {
				consider(e, n, false)
			}
			if v <= s.w && rootUp {
				consider(e, n, true)
			}
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

// minCapNodes is the tree size from which the server-count cap
// activates. Paper-scale instances (tens to hundreds of nodes) run
// uncapped — their tables are small and the cap would only add a cache
// dimension — while mega trees need it: uncapped, the n dimension of a
// table grows with the subtree size and the total merge volume is
// O(N²). It is a variable so tests can lower it to cross-check capped
// against uncapped solves on small trees.
var minCapNodes = 4096

// updateCap maintains capB, the clamp on the new-server dimension of
// every table. Correctness: serverCap returns the server count of a
// concrete feasible placement, so with non-negative prices (enforced
// by cost.Simple.Validate) the optimum costs at most
// costUB = c.Of(ub, 0, E) — reused servers only lower the cost. Any
// table cell with n new servers completes only to solutions with at
// least n new servers, each costing at least n; for n > capB >=
// floor(costUB) that is strictly more than costUB >= bestCost, so no
// dropped cell can be optimal or even tie the optimum: values,
// placements and tie-breaks are identical to the uncapped program.
//
// The cap is part of every table's shape, so changing it forces a full
// recompute (SolveInto treats capB like W). To keep cost sweeps and
// demand drift from thrashing the cache, the cap is sticky: it only
// ever grows, and any growth is by at least a 9/8 factor, bounding the
// number of reshapes over any sweep by log_{9/8} of the range — a cap
// larger than the current bound stays exact, just less tight. The cap
// is otherwise kept exact rather than rounded up: the merges above the
// cap's activation depth cost O(capB²), so a 2× rounding slack (the
// old next-power-of-two policy) made the top of a mega tree ~4× more
// expensive than the bound justifies.
func (s *MinCostSolver) updateCap(c cost.Simple) {
	if s.t.N() < minCapNodes {
		s.capB = 0
		return
	}
	ub, ok := s.serverCap()
	if !ok {
		// The greedy pass found no feasible placement under the mask, so
		// there is no sound upper bound; run uncapped. The sticky-growth
		// rule is bypassed on purpose: a retained cap derived from an
		// earlier (differently masked) instance may under-bound this one.
		s.capB = 0
		return
	}
	costUB := c.Of(ub, 0, s.existing.Count())
	b := int32(math.MaxInt32 / 4)
	if costUB < float64(b) {
		b = int32(costUB)
	}
	if b < 1 {
		b = 1
	}
	if b <= s.capB {
		return
	}
	if min := s.capB + (s.capB+7)/8; b < min {
		b = min
	}
	s.capB = b
}

// serverCap returns the server count of a concrete feasible placement,
// built by an O(N) greedy pass: climbing bottom-up, each node
// accumulates the demand escaping its children and equips any child
// whose escaped demand no longer fits the running total, then the root
// is equipped if demand still escapes. By induction every escaped
// demand is at most W (the base case is MaxClientSum <= W, checked
// before solving), so under the closest policy every equipped node
// carries at most W and the placement is valid — making the count an
// upper bound on the optimal server count.
//
// Under a fault mask the greedy pass must not equip down nodes: their
// escaped demand is carried upward instead, which can break the
// induction (a carried pile may exceed W with no live host below it).
// ok reports whether the placement stayed feasible; a false return
// means the pass proves nothing and the caller must run uncapped.
// Without a mask ok is always true and the count is byte-identical to
// the pre-mask pass.
func (s *MinCostSolver) serverCap() (cnt int, ok bool) {
	t := s.t
	s.escUB = grown(s.escUB, t.N())
	esc := s.escUB
	ok = true
	for _, j := range t.PostOrder() {
		e := int32(t.ClientSum(j))
		for _, c := range t.Children(j) {
			if e+esc[c] > s.w && !s.downNow[c] && esc[c] <= s.w {
				cnt++
			} else {
				e += esc[c]
			}
		}
		if e > s.w {
			// Only reachable under a mask: a down child's overflow was
			// forcibly carried here and j cannot absorb it either (an
			// equipped closest-policy server takes everything passing
			// through, so equipping j would carry e > W).
			ok = false
		}
		esc[j] = e
	}
	if esc[t.Root()] > 0 {
		if s.downNow[t.Root()] {
			ok = false
		} else {
			cnt++
		}
	}
	return cnt, ok
}

// rebuild unwinds the merge decisions of node j for target cell (e, n),
// equipping children along the way and recursing into their subtrees.
func (s *MinCostSolver) rebuild(j int, e, n int32) {
	steps := s.steps[j]
	kids := s.t.Children(j)
	for st := len(steps) - 1; st >= 0; st-- {
		step := &steps[st]
		ch := kids[st]
		var dec mcDec
		if step.comp {
			// Compressed steps have no e axis; reaching one with e != 0
			// would mean the shape bookkeeping is broken.
			if e != 0 {
				panic(fmt.Sprintf("core: compressed step with e=%d at node %d", e, j))
			}
			dec = s.lazyDec(j, st, step, ch, n)
		} else {
			dec = step.decs[e*(step.dimN+1)+n]
		}
		ce, cn := e-dec.ePrev, n-dec.nPrev
		if dec.place {
			s.placement.Set(ch, 1)
			if s.existing.Has(ch) {
				ce--
			} else {
				cn--
			}
		}
		s.rebuild(ch, ce, cn)
		e, n = dec.ePrev, dec.nPrev
	}
	if e != 0 || n != 0 {
		panic(fmt.Sprintf("core: reconstruction reached invalid base (%d,%d) at node %d", e, n, j))
	}
}
