package core

// This file holds the retained-buffer helpers and the statistics of
// the incremental re-solve paths of MinCostSolver, QoSSolver and
// PowerDP; the dirty tracking itself lives in the shared driver
// (dp.go). The dynamic programs are subtree-decomposable: the table of
// a node depends only on its own client demands, its children's
// tables, and per-child attributes of the instance (pre-existing
// membership/modes, link bandwidths). When a
// solve changes only a few of those inputs, every table outside the
// ancestor chains of the changed nodes is still exact, so the solvers
// keep all per-node tables in retained buffers across solves and
// recompute only the dirty chains — O(changed nodes × depth) instead of
// O(N) tables per solve.
//
// Staleness is detected per input class:
//
//   - client demands, via tree.Tree.DemandGen stamps (a change at node
//     x dirties x and its ancestors);
//   - pre-existing sets and operating modes, by diffing against a
//     retained copy of the previous solve's set (a change at x dirties
//     parent(x) and above: x's own table never depends on x's
//     membership, only its parent's merge does);
//   - global parameters that reshape every table (capacity W, the power
//     model, a constraint set), by full invalidation;
//   - parameters read only by the root scan (cost models), by nothing:
//     the root scan and the reconstruction run on every solve.
//
// The retained buffers replace the per-solve arenas for everything
// that must outlive a solve (final node tables, reconstruction
// back-pointers); merge intermediates still live in the arenas. Both
// only ever grow, so the zero-allocation steady state of the arena
// contract carries over to incremental solves.

// grown returns a slice of length n with unspecified contents for
// retained per-node DP storage, reusing buf's capacity when possible.
func grown[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]T, n)
}

// grownSpare is grown for retained buffers whose size follows the
// instance's values, not only its shape: a buffer that must grow is
// allocated with half again to spare, so solves whose needs drift by a
// little reuse it instead of growing on every new high-water mark.
func grownSpare[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]T, n, n+n/2+1)
}

// grownKeep is grown preserving the prefix already in buf. Used for
// slices whose elements are themselves retained buffers (per-node
// tables), so a cross-tree rebind keeps every buffer as a capacity
// donor.
func grownKeep[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	out := make([]T, n)
	copy(out, buf)
	return out
}

// SolveStats profiles a reusable solver's most recent completed solve.
type SolveStats struct {
	// Nodes is the number of internal nodes of the bound tree.
	Nodes int
	// Recomputed counts the nodes whose DP tables were rebuilt: equal
	// to Nodes on a cold (or invalidated) solve, the total size of the
	// dirty ancestor chains on an incremental one, and 0 when nothing
	// relevant changed since the previous solve. A partially re-merged
	// power root (see RootMergeRetained) counts as one recomputed node.
	Recomputed int
	// RootCellsRepriced counts the root-table cells PowerDP's root scan
	// priced: the starts of the root rows' runs, the only cells that
	// can reach the front (see minpower_root.go). Every power solve
	// prices them all; it stays 0 for MinCostSolver and QoSSolver.
	RootCellsRepriced int
	// RootMergeRetained counts the fold steps of PowerDP's root merge
	// that were reused from the previous solve instead of re-merged:
	// 0 on a cold solve, the number of root children when the whole
	// fold was skipped, and the length of the still-exact fold prefix
	// on a partial replay (a change under the q-th root child keeps q
	// steps). Stays 0 for MinCostSolver and QoSSolver.
	RootMergeRetained int
	// MergeCellsScanned measures the merge work of the solve in run
	// operations. All three solvers merge on runs, so it is the sum,
	// over the (acc row, child row) pairs their merges fold, of the two
	// rows' run counts.
	MergeCellsScanned int
	// RowsCompressed counts the DP rows the merge kernels folded in
	// breakpoint form, two (accumulator and child) per merged row pair
	// with both rows non-empty.
	RowsCompressed int
	// FoldSuffixReplayed counts the merge steps re-executed by partial
	// child-fold replays: a dirty node whose first stale child sits at
	// position s of its fold re-runs only the suffix from s, and those
	// suffix steps land here. Steps of full (position-0) rebuilds do
	// not count, so on drift solves a low number next to a high
	// Recomputed means the retained fold prefixes are doing their job.
	FoldSuffixReplayed int
	// MaskedNodes is the number of nodes the solver's fault mask (see
	// MinCostSolver.SetMask) held down during the solve: 0 without a
	// mask. Stays 0 for QoSSolver and PowerDP, which do not take masks.
	MaskedNodes int
}

// mergeStats accumulates the merge-layer counters of SolveStats per
// worker, so the wave-parallel pass can count without synchronisation.
type mergeStats struct {
	cells    int
	rows     int
	replayed int
}
