// Package core implements the paper's primary contribution: exact
// dynamic-programming algorithms for replica placement and update in
// tree networks.
//
//   - MinCost solves MinCost-WithPre (Theorem 1): given pre-existing
//     servers, find a placement of minimal reconfiguration cost
//     cost(R) = R + (R−e)·create + (E−e)·delete. The classical
//     MinCost-NoPre problem is the E=∅ special case.
//   - SolvePower solves MinPower and MinPower-BoundedCost (Theorem 3)
//     for a fixed number of server modes, with or without pre-existing
//     servers, and exposes the full cost/power Pareto front. MinPower
//     with an arbitrary number of modes is NP-complete (Theorem 2, see
//     package npc); the algorithm here is exponential in M only.
//
// Both dynamic programs assume the closest access policy
// (tree.PolicyClosest): Lemma 1's "requests traversing a node" argument
// relies on every request being absorbed by the first equipped ancestor.
// They are not valid under the relaxed upwards/multiple policies of
// tree.Policy; for those, the exhaustive BruteFeasible /
// BruteMinReplicasPolicy searches in this package are the exact
// (exponential) references, and the greedy and heuristic packages
// provide polynomial baselines.
//
// Both algorithms follow the paper's structure — a bottom-up traversal
// that merges children one at a time, where the table entry for a given
// "server budget" in a subtree records the minimal number of requests
// forced to traverse the subtree's root (Lemma 1) — with two
// implementation refinements. Tables are bounded by per-subtree counts
// rather than global ones: a subtree with k candidate nodes holds at
// most k servers, so the cells past k are unreachable and need no
// storage. Solutions are reconstructed from per-merge back-pointers
// instead of per-cell request vectors: one small decision per cell
// replaces a vector as long as the subtree.
//
// # The monotone-row contract
//
// Every DP row produced by the solvers — traversals indexed by server
// budget in MinCost and QoS, and by the count of top-mode servers (the
// innermost axis) in the no-pre power tables — obeys one invariant:
// infeasible cells form a prefix of the row, and past it the values are
// non-increasing in the budget (equipping one more server never forces
// more requests upward). Such a row is stored exactly as its
// breakpoints: the short list of (start, value) runs where the value
// changes (breakrow.go). Rows at least minDenseWidth wide run the merge
// kernels directly on runs — min-plus convolution, pointwise minimum
// and prefix folds are linear in the number of breakpoints instead of
// the row width — while narrow rows keep the dense kernels. The
// contract is verified at encode time (a violating row falls back to
// dense, so compression is exact unconditionally), decisions are
// reconstructed lazily from the runs, and results are byte-identical to
// the dense kernels — same placements, fronts and tie-breaks — which
// the compressed_test.go differential suite enforces across drift
// sequences and worker counts. In the power tables the invariant holds
// within each row's effective length (the node budget left after the
// other mode counts); the tail beyond it is unreachable by pigeonhole,
// which the encoder also verifies cell by cell.
package core
