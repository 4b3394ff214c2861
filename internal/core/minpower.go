package core

import (
	"fmt"
	"math"
	"sort"

	"replicatree/internal/cost"
	"replicatree/internal/power"
	"replicatree/internal/tree"
)

// PowerProblem is an instance of MinPower-BoundedCost (Section 4.3). A
// nil Existing set gives the NoPre variant; otherwise the modes stored
// in Existing are the initial operating modes of the pre-existing
// servers.
type PowerProblem struct {
	// Tree may be nil when solving through a PowerDP, which supplies
	// its own tree.
	Tree     *tree.Tree
	Existing *tree.Replicas
	Power    power.Model
	Cost     cost.Modal
}

// PowerResult is one optimal placement with its exact cost and power.
type PowerResult struct {
	// Placement holds the solution servers with their operating modes.
	Placement *tree.Replicas
	Cost      float64
	Power     float64
}

// ParetoPoint is one non-dominated (cost, power) trade-off.
type ParetoPoint struct {
	Cost  float64
	Power float64
}

// PowerSolver holds the output of one run of the power dynamic program.
// A single run answers MinPower, MinPower-BoundedCost for every bound,
// and the full Pareto front, because the root table enumerates every
// achievable server-count vector (Theorem 3). A PowerSolver returned by
// a PowerDP borrows that solver's scratch and stays valid only until
// the next PowerDP.Solve call.
type PowerSolver struct {
	prob  PowerProblem
	front []frontEntry // ascending cost, strictly descending power
	powerTables
}

type frontEntry struct {
	cost     float64
	power    float64
	rootCell int32
	rootMode uint8 // 0 = no server on the root
}

// noProv is the provenance of an unreached cell.
const noProv = ^uint64(0)

// packProv encodes where a cell's value came from: the flat cell of the
// accumulated table before the merge, the flat cell of the merged
// child's final table, and the mode of a server placed on the child
// (0 = none). Both flat indices fit in 27 bits (maxTableCells), so the
// triple packs into one uint64 ordered exactly like a dense merge's
// scan: ascending accumulated cell, then child cell.
func packProv(aFlat, cFlat int, mode uint8) uint64 {
	return uint64(aFlat)<<35 | uint64(cFlat)<<8 | uint64(mode)
}

func unpackProv(p uint64) (aFlat, cFlat int32, mode uint8) {
	return int32(p >> 35), int32(p >> 8 & (1<<27 - 1)), uint8(p)
}

// pStep is the output of one fold step: the merged table as run rows
// along n_M (one bpTable row per row of the dense layout, see
// minpower_compress.go) and its dense shape. It is also the next
// step's input and a fold restart point, and reconstruction re-derives
// any of its cells' decisions from it (lazyProv).
type pStep struct {
	tab bpTable
	sh  shape
}

// powerTables is the retained run-form state of the power DP: per node
// the base cell (the requests of the node's own clients) and the
// output of every fold step. A node's final table is its last step's
// output, or its base cell for a leaf.
type powerTables struct {
	base  []bpRun
	steps [][]pStep
	unit  shape // the shape of a one-cell table
}

// stepIn returns the accumulated table entering fold step st of node
// j: the base cell for the first step, the previous step's output
// otherwise.
func (p *powerTables) stepIn(j, st int) (bpTable, shape) {
	if st > 0 {
		s := &p.steps[j][st-1]
		return s.tab, s.sh
	}
	return bpTable{runs: p.base[j : j+1]}, p.unit
}

// final returns node j's final table.
func (p *powerTables) final(j int) (bpTable, shape) { return p.stepIn(j, len(p.steps[j])) }

// SolvePower runs the MinPower-BoundedCost dynamic program. The table of
// a node is indexed by the full count vector (n_1..n_M, e_{i→i'}): new
// servers per operating mode and reused pre-existing servers per
// (initial mode, operating mode) pair; each cell keeps the minimal
// number of requests traversing the node (the Lemma 1 argument applies
// per vector because cost and power are functions of the vector alone).
// A server placed on a node with traversing load q may operate at any
// mode whose capacity covers q — the paper's "try all possible modes"
// loop — which subsumes the load-determined minimal mode and lets a
// reused server stay at its initial mode free of change cost.
//
// The complexity matches Theorem 3: O(N^{2M+1}) without pre-existing
// servers and O(N^{2M²+2M+1}) with them, in the worst case; per-subtree
// dimension bounds make typical instances far cheaper. PowerDP.SetWorkers
// fans the bottom-up pass across subtrees.
//
// The program is exact only under the closest access policy
// (tree.PolicyClosest); see the package documentation for the relaxed
// policies.
//
// SolvePower builds a fresh PowerDP per call; hot loops solving many
// instances on the same tree should hold one PowerDP instead.
func SolvePower(p PowerProblem) (*PowerSolver, error) {
	if p.Tree == nil {
		return nil, fmt.Errorf("core: nil tree")
	}
	sol, err := NewPowerDP(p.Tree).Solve(p)
	if err != nil {
		return nil, err
	}
	// Detach the solution view from the throwaway PowerDP: the copy
	// keeps only the front and the run tables reconstruction reads
	// alive, letting the scan and merge scratch be collected while the
	// caller holds the solver.
	detached := *sol
	return &detached, nil
}

// PowerDP is a reusable MinPower-BoundedCost solver for one tree.
// Every fold step's output table lives as run rows in retained
// per-node buffers and merge scratch in per-worker arenas, all grown
// monotonically to the high-water mark of past solves, so after a few
// warm-up solves of an instance every further Solve performs no heap
// allocation. No table is ever held dense: the root scan prices the
// starts of the root table's runs, the only cells that can reach the
// front, and keeps nothing between solves.
//
// The retained tables make solves incremental, mode-indexed shapes
// included: demand edits through tree.Tree.SetDemand dirty the touched
// node's ancestor chain, a changed initial mode of a pre-existing
// server dirties its parent's chain (the mode re-dimensions every
// ancestor's count vector, which is exactly the set of tables the
// chain covers), and a different power model invalidates everything.
// The cost model never invalidates tables — only the root scan prices
// it — so sweeping cost models re-solves in time linear in the root
// table's runs. Use Invalidate after mutations the solver cannot
// observe, and Reset to rebind the solver to another tree while keeping
// its buffers. A solve that fails or is cancelled before its root scan
// invalidates every table, so the next solve recomputes from scratch.
//
// The PowerSolver a Solve returns aliases the solver's scratch: it is
// invalidated by the next Solve (or Reset). A PowerDP is not safe for
// concurrent use; run one per goroutine.
type PowerDP struct {
	dpDriver
	empty *tree.Replicas

	// Per-solve configuration.
	prob PowerProblem
	M    int   // number of modes
	nf   int   // number of vector fields, M + M²
	wm   int32 // W_M

	// Per node, retained across solves: the run tables (steps[j] has
	// one entry per child of j) and the subtree (exclusive) counts of
	// non-pre-existing nodes and of pre-existing nodes per initial mode.
	powerTables
	newCnt []int32
	preCnt [][]int32

	// Incremental bookkeeping.
	lastMode  []uint8
	lastPower power.Model

	// Root-scan pricing (minpower_root.go), rebuilt every solve.
	cw, pw       []float64 // per-field cost/power weights
	baseC        float64   // count-independent cost term (deletions)
	totalPre     []int
	rootRepriced int
	// Row walker scratch of the scan: the root's dims with n_M held at
	// one cell, and the walked cell's coordinates.
	rowDims, coords []int32

	// How many root fold steps the last solve reused.
	rootRetained int

	front []frontEntry // the root scan's Pareto front, high-water reused
	sol   PowerSolver
}

// NewPowerDP returns a reusable power solver for t. Power tables are
// expensive enough that a cancellation poll per node table is
// invisible, which keeps cancellation latency at one table.
func NewPowerDP(t *tree.Tree) *PowerDP {
	d := &PowerDP{}
	d.init(d.solveNode, d.changed, 1)
	d.root = d.runRoot
	d.Reset(t)
	return d
}

// Reset rebinds the solver to tree t, keeping every retained buffer as
// scratch for the new tree, so sweeping many trees of similar shape
// through one solver skips most warm-up allocations. The first solve
// after a Reset recomputes every table, and any PowerSolver returned
// by an earlier Solve is invalidated.
func (d *PowerDP) Reset(t *tree.Tree) {
	n := t.N()
	if d.empty == nil || d.empty.N() != n {
		d.empty = tree.NewReplicas(n)
	}
	d.base = grown(d.base, n)
	d.steps = grownKeep(d.steps, n)
	for j := 0; j < n; j++ {
		d.steps[j] = grownKeep(d.steps[j], len(t.Children(j)))
	}
	d.newCnt = grown(d.newCnt, n)
	d.preCnt = grownKeep(d.preCnt, n)
	d.lastMode = grown(d.lastMode, n)

	d.bind(t)
}

// Stats profiles the most recent completed solve: how many of the
// tree's node tables it actually recomputed, and how many root-table
// run starts its scan priced (see SolveStats).
func (d *PowerDP) Stats() SolveStats {
	st := d.dpDriver.Stats()
	st.RootCellsRepriced = d.rootRepriced
	st.RootMergeRetained = d.rootRetained
	return st
}

// changed reports whether the initial mode of node j moved since the
// last commit: a node's own table never depends on its own mode, but
// every ancestor's count vector does.
func (d *PowerDP) changed(j int) bool { return d.lastMode[j] != d.prob.Existing.Mode(j) }

// Solve runs the dynamic program for one problem instance on the
// solver's tree (p.Tree may be nil or must match it). The returned
// PowerSolver is owned by the PowerDP and valid until the next Solve.
func (d *PowerDP) Solve(p PowerProblem) (*PowerSolver, error) {
	if p.Tree == nil {
		p.Tree = d.t
	} else if p.Tree != d.t {
		return nil, fmt.Errorf("core: PowerDP bound to a different tree")
	}
	if p.Existing == nil {
		p.Existing = d.empty
	}
	if p.Existing.N() != p.Tree.N() {
		return nil, fmt.Errorf("core: existing set covers %d nodes, tree has %d", p.Existing.N(), p.Tree.N())
	}
	if err := p.Power.Validate(); err != nil {
		return nil, err
	}
	if err := p.Cost.Validate(); err != nil {
		return nil, err
	}
	if p.Cost.M() != p.Power.M() {
		return nil, fmt.Errorf("core: cost model has %d modes, power model %d", p.Cost.M(), p.Power.M())
	}
	M := p.Power.M()
	if M > 255 {
		return nil, fmt.Errorf("core: %d modes not supported", M)
	}
	for j := 0; j < p.Tree.N(); j++ {
		if int(p.Existing.Mode(j)) > M {
			return nil, fmt.Errorf("core: pre-existing server at node %d has mode %d > M=%d", j, p.Existing.Mode(j), M)
		}
	}
	if p.Power.MaxCap() > math.MaxInt32/4 {
		return nil, fmt.Errorf("core: capacity %d too large", p.Power.MaxCap())
	}
	if m := p.Tree.MaxClientSum(); m > p.Power.MaxCap() {
		return nil, fmt.Errorf("core: a node's clients demand %d > W_M=%d: %w", m, p.Power.MaxCap(), ErrInfeasible)
	}
	d.prob, d.M, d.nf, d.wm = p, M, M+M*M, int32(p.Power.MaxCap())
	d.unit.dims = grown(d.unit.dims, d.nf)
	d.unit.strides = grown(d.unit.strides, d.nf)
	for f := range d.unit.dims {
		d.unit.dims[f], d.unit.strides[f] = 1, 1
	}
	d.unit.size = 1

	// Demands dirty their ancestor chain, a changed initial mode its
	// parent's chain (see changed); a different power model reshapes
	// every table. The cost model only prices the root scan below.
	d.markDirty(!p.Power.Equal(d.lastPower))
	if err := d.run(); err != nil {
		// A mid-tree failure (table-size overflow, cancellation) has
		// already overwritten some retained tables for the failed
		// instance; nothing was committed, so force the next solve to
		// rebuild everything rather than mix instances.
		d.Invalidate()
		return nil, err
	}

	// Commit before the root scan: the tables are valid even when the
	// scan finds the instance infeasible. The model copy reuses the
	// retained capacity slice so a steady-state solve stays alloc-free
	// and later in-place mutations of the caller's slice cannot alias.
	d.lastPower = power.Model{
		Caps:   append(d.lastPower.Caps[:0], p.Power.Caps...),
		Static: p.Power.Static,
		Alpha:  p.Power.Alpha,
	}
	for j := 0; j < p.Tree.N(); j++ {
		d.lastMode[j] = p.Existing.Mode(j)
	}
	d.commit()

	if err := d.scanRoot(); err != nil {
		// Cancelled mid-scan: the subtree tables above were committed
		// and stay exact, and the next solve prices the root afresh.
		return nil, err
	}
	if len(d.front) == 0 {
		return nil, fmt.Errorf("core: %w", ErrInfeasible)
	}
	d.sol = PowerSolver{prob: p, front: d.front, powerTables: d.powerTables}
	return &d.sol, nil
}

// fieldNew returns the vector field of n_m (1-based mode m).
func (d *PowerDP) fieldNew(m int) int { return m - 1 }

// fieldReuse returns the vector field of e_{i→m} (1-based modes).
func (d *PowerDP) fieldReuse(i, m int) int { return d.M + (i-1)*d.M + (m - 1) }

// nodeDims fills dims with the table dimensions for the subtree of j
// (node j excluded): every n_m field is bounded by the number of
// non-pre nodes, every e_{i→m} field by the number of pre-existing
// nodes with initial mode i.
func (d *PowerDP) nodeDims(dims []int32, newCnt int32, preCnt []int32) {
	for m := 1; m <= d.M; m++ {
		dims[d.fieldNew(m)] = newCnt + 1
	}
	for i := 1; i <= d.M; i++ {
		for m := 1; m <= d.M; m++ {
			dims[d.fieldReuse(i, m)] = preCnt[i-1] + 1
		}
	}
}

// solveNode rebuilds the final table of non-root node j on worker w.
func (d *PowerDP) solveNode(j, w int) error {
	_, err := d.fold(j, w, false)
	return err
}

// fold re-runs the child fold of dirty node j on worker w from its
// first stale step (see dpDriver.foldStart) and returns that step, or
// -1 when the retained table is still exact. Every step retains its
// output, so any step can restart the fold. The root (root == true)
// polls the cancellation gate between its steps.
func (d *PowerDP) fold(j, w int, root bool) (int, error) {
	t := d.t
	ar, sc, ms := &d.arenas[w], &d.bps[w], &d.mstats[w]
	kids := t.Children(j)
	start := d.foldStart(j, w, kids, true)
	if start < 0 {
		return start, nil
	}
	d.base[j] = bpRun{val: int64(t.ClientSum(j))}

	// Prefix-fold the already-merged children's counts (their subtrees
	// and modes are unchanged, so the retained per-child counts still
	// apply).
	accNew := int32(0)
	accPre := ar.alloc(d.M)
	for i := range accPre {
		accPre[i] = 0
	}
	for _, ch := range kids[:start] {
		accNew += d.newCnt[ch]
		for i := range accPre {
			accPre[i] += d.preCnt[ch][i]
		}
		if m0 := int(d.prob.Existing.Mode(ch)); m0 == 0 {
			accNew++
		} else {
			accPre[m0-1]++
		}
	}
	for q := start; q < len(kids); q++ {
		if root {
			// The root folds the largest merges of the tree, so poll the
			// cancellation gate between fold steps.
			if err := d.cancel.err(); err != nil {
				return start, err
			}
		}
		if err := d.merge(j, q, kids[q], &accNew, accPre, ar, sc, ms); err != nil {
			return start, err
		}
	}
	d.newCnt[j] = accNew
	d.preCnt[j] = append(d.preCnt[j][:0], accPre...)
	return start, nil
}

// childDims computes the accumulated subtree counts after folding child
// ch and the resulting table shape (backed by ar).
func (d *PowerDP) childDims(ch int, accNew int32, accPre []int32, ar *arena[int32]) (int32, []int32, shape, error) {
	outNew := accNew + d.newCnt[ch]
	outPre := ar.alloc(d.M)
	for i := range outPre {
		outPre[i] = accPre[i] + d.preCnt[ch][i]
	}
	if chMode0 := int(d.prob.Existing.Mode(ch)); chMode0 == 0 {
		outNew++
	} else {
		outPre[chMode0-1]++
	}
	outDims := ar.alloc(d.nf)
	d.nodeDims(outDims, outNew, outPre)
	outShape, err := fillShape(outDims, ar.alloc(d.nf))
	return outNew, outPre, outShape, err
}

// paretoPrune merges, in place, the points of the exact front d.front
// (pushFront's order: ascending cost, strictly descending power) whose
// costs lie within frontEps, so that floating-point jitter in summed
// prices does not produce near-duplicate front points.
func (d *PowerDP) paretoPrune() {
	const frontEps = 1e-9
	front := d.front[:0]
	bestPower := math.Inf(1)
	for _, c := range d.front {
		if c.power >= bestPower-frontEps {
			continue
		}
		if n := len(front); n > 0 && c.cost <= front[n-1].cost+frontEps {
			// Same cost up to jitter but strictly less power:
			// replace the kept entry.
			front[n-1] = c
		} else {
			front = append(front, c)
		}
		bestPower = c.power
	}
	d.front = front
}

// Front returns the cost/power Pareto front, ascending in cost.
func (s *PowerSolver) Front() []ParetoPoint {
	return s.FrontInto(make([]ParetoPoint, 0, len(s.front)))
}

// FrontInto is Front with a caller-owned destination slice: the front is
// written into dst[:0] (growing it only when its capacity is too small)
// and returned, so per-solve front reads in sweep loops stay
// allocation-free once dst has grown to the high-water front size.
func (s *PowerSolver) FrontInto(dst []ParetoPoint) []ParetoPoint {
	dst = dst[:0]
	for _, f := range s.front {
		dst = append(dst, ParetoPoint{Cost: f.cost, Power: f.power})
	}
	return dst
}

// Best returns the minimal-power solution whose cost does not exceed
// bound, or found == false when the bound is unreachable. Among equal
// power values the cheaper solution wins.
func (s *PowerSolver) Best(bound float64) (*PowerResult, bool) {
	res, ok := s.BestInto(bound, nil)
	if !ok {
		return nil, false
	}
	return &res, true
}

// BestInto is Best with a caller-owned destination placement (allocated
// fresh when nil; reset first otherwise), enabling allocation-free
// sweeps over many cost bounds. The returned result's Placement field
// is dst. Like the flow engine's hot-path methods it panics on the
// programming error of a destination sized for a different tree; use
// Best for untrusted destinations.
func (s *PowerSolver) BestInto(bound float64, dst *tree.Replicas) (PowerResult, bool) {
	// The front is sorted by ascending cost with descending power, so
	// the best affordable entry is the last one within the bound.
	idx := sort.Search(len(s.front), func(i int) bool { return s.front[i].cost > bound }) - 1
	if idx < 0 {
		return PowerResult{}, false
	}
	return s.reconstruct(s.front[idx], dst), true
}

// MinPower returns the minimal-power solution regardless of cost (the
// plain MinPower objective, NP-complete for arbitrary M per Theorem 2).
func (s *PowerSolver) MinPower() *PowerResult {
	res, _ := s.Best(math.Inf(1))
	return res
}

// At reconstructs the i-th point of the Pareto front.
func (s *PowerSolver) At(i int) *PowerResult {
	res := s.reconstruct(s.front[i], nil)
	return &res
}

func (s *PowerSolver) reconstruct(f frontEntry, dst *tree.Replicas) PowerResult {
	if dst == nil {
		dst = tree.ReplicasOf(s.prob.Tree)
	} else {
		if dst.N() != s.prob.Tree.N() {
			panic(fmt.Sprintf("core: destination set covers %d nodes, tree has %d", dst.N(), s.prob.Tree.N()))
		}
		dst.Reset()
	}
	if f.rootMode != 0 {
		dst.Set(s.prob.Tree.Root(), f.rootMode)
	}
	s.rebuild(s.prob.Tree.Root(), f.rootCell, dst)
	return PowerResult{Placement: dst, Cost: f.cost, Power: f.power}
}

// rebuild unwinds the merge decisions of node j for the given flat
// cell, in reverse fold order, deriving each from the step's run
// tables (lazyProv).
func (s *PowerSolver) rebuild(j int, cell int32, placement *tree.Replicas) {
	kids := s.prob.Tree.Children(j)
	for st := len(kids) - 1; st >= 0; st-- {
		p := s.lazyProv(j, st, cell)
		if p == noProv {
			panic(fmt.Sprintf("core: power reconstruction hit an unreached cell at node %d", j))
		}
		aPrev, cCell, mode := unpackProv(p)
		ch := kids[st]
		if mode != 0 {
			placement.Set(ch, mode)
		}
		s.rebuild(ch, cCell, placement)
		cell = aPrev
	}
	if cell != 0 {
		panic(fmt.Sprintf("core: power reconstruction reached invalid base cell %d at node %d", cell, j))
	}
}
