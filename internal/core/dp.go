package core

import (
	"context"
	"runtime"

	"replicatree/internal/par"
	"replicatree/internal/tree"
)

// dpDriver is the bottom-up child-fold driver shared by the three exact
// dynamic programs: MinCost-WithPre (Theorem 1), the power DP
// (Theorem 3) and the closest-policy QoS DP. Each is the same
// recurrence — a node's table is its own base cell folded with its
// children's tables one merge at a time — and differs only in its
// leaf, merge and root kernels. The driver owns everything around those
// kernels: the dirty tracking that makes solves incremental, the fold
// restart decision, the sequential or wave-parallel run loop with its
// cancellation checkpoints, and the per-worker scratch. Each solver
// embeds one driver, installs its kernels with init, and keeps only
// its input checks, kernels and reconstruction.
//
// Staleness is tracked per node. A solve first marks every node whose
// demand generation moved (or every node, on a full solve), then the
// parent of every node whose per-child inputs changed (the changed
// hook: pre-existing membership, operating modes, fault-mask state — a
// node's own table never depends on them, only its parent's merge
// does), and finally propagates dirtiness up the ancestor chains.
// Only the dirty nodes are rebuilt; commit records the demand
// generations once the solver accepted the pass.
//
// The wave-parallel pass (SetWorkers) processes the tree's height
// waves (tree.Wave) in order: every child lies in a strictly lower
// wave, so once the previous waves are complete the dirty nodes of one
// wave are independent — each reads only its children's retained
// tables and writes only its own per-node buffers. Fanning a wave
// across a persistent worker pool therefore yields results
// bit-identical to the sequential post-order pass for any worker
// count, and the pool's done hand-off gives the next wave a
// happens-before edge on all writes. Thin waves run inline on worker 0:
// drift steps re-solve only sparse ancestor chains, and waking the
// pool costs more than a few table rebuilds.
type dpDriver struct {
	t *tree.Tree

	// Dirty tracking: whether a committed solve exists, the demand
	// generation folded into each node's table, and the nodes the
	// current solve rebuilds.
	solved bool
	seen   []uint64
	dirty  []bool

	// fullSolve is set for the duration of one solve when every table
	// must be rebuilt from scratch: partial fold replays are then
	// disabled even at nodes whose children look clean.
	fullSolve  bool
	recomputed int

	// Kernel hooks installed by the embedding solver: node rebuilds the
	// table of dirty node j with worker w's scratch; changed reports a
	// per-child input change of node j since the last commit (nil:
	// none); root, when set, owns the root, which the pass then skips
	// and runs afterwards on worker 0; stride is the number of
	// sequential node rebuilds between two cancellation polls.
	node    func(j, w int) error
	changed func(j int) bool
	root    func() error
	stride  int

	// Per-worker scratch, index = worker id (worker 0 also serves the
	// sequential pass and the root). Arenas are recycled per node:
	// intermediates never outlive the node whose merges produced them,
	// so each arena only needs to fit the largest single node.
	arenas []arena[int32]
	bps    []bpScratch
	mstats []mergeStats
	errs   []error

	// Wave-parallel scheduler: the pool (nil when sequential), the
	// dirty nodes of the wave being dispatched, and the pool task
	// (bound once, so dispatching a wave allocates nothing).
	pool     *par.Pool
	dirtyIdx []int
	task     func(w, i int)

	// Cooperative cancellation (see SetContext and cancelGate).
	cancel cancelGate
}

// init installs the solver's kernels and sizes the driver for one
// worker.
func (d *dpDriver) init(node func(j, w int) error, changed func(j int) bool, stride int) {
	d.node, d.changed, d.stride = node, changed, stride
	d.task = d.runTask
	d.SetWorkers(1)
}

// bind rebinds the driver to tree t, keeping its buffers, and forces
// the next solve to be a full one.
func (d *dpDriver) bind(t *tree.Tree) {
	d.t = t
	d.seen = grown(d.seen, t.N())
	d.dirty = grown(d.dirty, t.N())
	d.solved = false
}

// SetWorkers sets the number of workers for the bottom-up pass
// (workers <= 0 selects runtime.GOMAXPROCS(0); 1, the default, runs
// sequentially without goroutines). Each height wave of the tree is
// fanned across the workers, and each dirty node is computed by exactly
// one worker into its own per-node buffers, so results are
// bit-identical for every worker count. Incremental solves keep their
// advantage: only the dirty nodes of each wave are dispatched. This is
// the solvers' only parallelism knob.
func (d *dpDriver) SetWorkers(workers int) {
	if d.pool != nil {
		d.pool.Close()
		d.pool = nil
	}
	n := workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > 1 {
		d.pool = par.NewPool(n)
	}
	d.arenas = grownKeep(d.arenas, n)[:n]
	d.bps = grownKeep(d.bps, n)[:n]
	d.mstats = grownKeep(d.mstats, n)[:n]
	d.errs = grownKeep(d.errs, n)[:n]
}

// SetContext installs a context consulted by every following Solve at
// coarse checkpoints: between height waves (and the pool's chunk
// claims) on the parallel path, every few node tables on the
// sequential one, and — in PowerDP — between the merge fold steps of
// the root and once per row of the root scan. Once the context is
// cancelled the in-flight solve stops within one checkpoint and
// returns the context's error with nothing committed, so the solver
// stays repairable (see cancel.go). A nil context — the default —
// disables the checkpoints.
func (d *dpDriver) SetContext(ctx context.Context) { d.cancel.set(ctx) }

// Invalidate discards the validity of every cached subtree table,
// forcing the next solve to recompute the whole tree like a cold
// solver. It is needed only after out-of-band mutations the solver
// cannot observe: demand edits through SetDemand/SetClientRequests and
// the per-solve inputs are detected automatically.
func (d *dpDriver) Invalidate() { d.solved = false }

// Stats profiles the most recent completed solve: how many of the
// tree's node tables it actually recomputed, and the merge-layer
// counters (see SolveStats).
func (d *dpDriver) Stats() SolveStats {
	st := SolveStats{Nodes: d.t.N(), Recomputed: d.recomputed}
	for _, m := range d.mstats {
		st.MergeCellsScanned += m.cells
		st.RowsCompressed += m.rows
		st.FoldSuffixReplayed += m.replayed
	}
	return st
}

// stale reports whether the table of child ch, or its per-child
// inputs, changed since the last commit.
func (d *dpDriver) stale(ch int) bool {
	return d.dirty[ch] || d.changed != nil && d.changed(ch)
}

// markDirty decides which cached tables the solve must rebuild. full
// forces every table (a global parameter that reshapes them changed);
// so does the absence of a committed solve.
func (d *dpDriver) markDirty(full bool) {
	t := d.t
	d.fullSolve = full || !d.solved
	for j := 0; j < t.N(); j++ {
		d.dirty[j] = d.fullSolve || t.DemandGen(j) != d.seen[j]
	}
	if d.changed != nil {
		for j := 0; j < t.N(); j++ {
			if p := t.Parent(j); p >= 0 && d.changed(j) {
				d.dirty[p] = true
			}
		}
	}
	// The post-order visits every child before its parent, so one pass
	// pushes dirtiness up every ancestor chain.
	for _, j := range t.PostOrder() {
		if p := t.Parent(j); p >= 0 && d.dirty[j] {
			d.dirty[p] = true
		}
	}
}

// commit records that every table now reflects the tree's current
// demands. Call only after the pass succeeded.
func (d *dpDriver) commit() {
	for j := 0; j < d.t.N(); j++ {
		d.seen[j] = d.t.DemandGen(j)
	}
	d.solved = true
}

// foldStart returns the first fold step of dirty node j whose retained
// output is stale, or -1 when nothing the table depends on changed (it
// was dirtied spuriously and stays as is). A step is stale when its
// child is (see stale). baseDemand says whether the fold's base cell
// holds j's own demand, in which case a demand change restarts at 0.
// Every step retains its output, the accumulator a restart at the next
// step needs. Replayed suffix steps are counted on worker w.
//
// The retained prefix stays exact by induction: any input change to a
// prefix step makes that step stale and moves the restart before it.
func (d *dpDriver) foldStart(j, w int, kids []int, baseDemand bool) int {
	if d.fullSolve || baseDemand && d.t.DemandGen(j) != d.seen[j] {
		return 0
	}
	start := len(kids)
	for q, ch := range kids {
		if d.stale(ch) {
			start = q
			break
		}
	}
	if start == len(kids) && baseDemand {
		return -1
	}
	if start > 0 {
		d.mstats[w].replayed += len(kids) - start
	}
	return start
}

// run executes one bottom-up pass over the dirty nodes: the height
// waves on the pool, or the post-order on the caller with a
// cancellation poll every stride rebuilds. With a root hook the pass
// leaves the root — alone in the last wave — to the hook, which runs
// afterwards. The first error of any worker, or the context's error
// once the pass stopped early, is returned; nothing is committed
// either way.
func (d *dpDriver) run() error {
	t := d.t
	d.recomputed = 0
	for w := range d.mstats {
		d.mstats[w] = mergeStats{}
		d.errs[w] = nil
	}
	root := -1
	waves := t.Waves()
	if d.root != nil {
		root = t.Root()
		waves--
	}
	var err error
	if d.pool != nil {
		if !d.runWaves(waves) {
			err = d.cancel.ctx.Err()
		}
	} else {
		for _, j := range t.PostOrder() {
			if !d.dirty[j] || j == root {
				continue
			}
			if d.recomputed%d.stride == 0 {
				if err = d.cancel.err(); err != nil {
					break
				}
			}
			d.recomputed++
			d.arenas[0].reset()
			if err = d.node(j, 0); err != nil {
				break
			}
		}
	}
	for _, e := range d.errs {
		if e != nil {
			err = e
			break
		}
	}
	if err == nil && d.root != nil {
		d.arenas[0].reset()
		err = d.root()
	}
	d.flushScratch()
	return err
}

// runWaves dispatches the dirty nodes of the first waves height levels
// to the pool, wave by wave. It reports whether the pass ran to
// completion: once the context is cancelled the pass stops claiming
// work at the next wave boundary — and, within a wide wave, at the
// pool's next chunk claim. Nodes already dispatched finish their table
// rebuild; the pass never abandons a table half-written.
func (d *dpDriver) runWaves(waves int) bool {
	for h := 0; h < waves; h++ {
		if d.cancel.err() != nil {
			return false
		}
		wd := d.dirtyIdx[:0]
		for _, j := range d.t.Wave(h) {
			if d.dirty[j] {
				wd = append(wd, j)
			}
		}
		d.dirtyIdx = wd
		d.recomputed += len(wd)
		if len(wd) < 4 {
			for i := range wd {
				d.task(0, i)
			}
			continue
		}
		if !d.pool.RunCancel(len(wd), d.cancel.done, d.task) {
			return false
		}
	}
	return true
}

// runTask rebuilds the i-th dirty node of the current wave on worker
// w, keeping the worker's first error.
func (d *dpDriver) runTask(w, i int) {
	d.arenas[w].reset()
	if err := d.node(d.dirtyIdx[i], w); err != nil && d.errs[w] == nil {
		d.errs[w] = err
	}
}

// flushScratch settles the scratch growth of the pass inside the
// solve. A per-node reset grows an arena to the need of the node
// handled before it, so the growth owed to each arena's last node would
// otherwise surface as a one-off allocation in a later solve's timed
// region. Every worker's arena and compressed-merge scratch is then
// grown to the largest seen by any worker: which worker draws which
// node varies from pass to pass, and sizing each worker's scratch only
// by the nodes it happened to draw would leave its next bigger draw to
// allocate.
func (d *dpDriver) flushScratch() {
	need := 0
	for w := range d.arenas {
		d.arenas[w].reset()
		need = max(need, len(d.arenas[w].buf))
	}
	for w := range d.arenas {
		d.arenas[w].reserve(need)
	}
	for w := 1; w < len(d.bps); w++ {
		d.bps[0].cover(&d.bps[w])
	}
	for w := 1; w < len(d.bps); w++ {
		d.bps[w].cover(&d.bps[0])
	}
}
