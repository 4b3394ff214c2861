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
// budget in MinCost and QoS, and by the count of top-mode servers n_M
// in the power tables — obeys one invariant:
// infeasible cells form a prefix of the row, and past it the values are
// non-increasing in the budget. Such a row is stored exactly as its
// breakpoints: the short list of (start, value) runs where the value
// changes (breakrow.go), at most W+1 of them whatever the row width.
// Min-plus convolution, pointwise minimum and prefix folds run on runs
// in time linear in the number of breakpoints instead of the width.
//
// For MinCost the invariant is a theorem: a table cell (e, n) holds the
// least load escaping the subtree with e reused and n new servers, and
// equipping one more live non-pre node of the subtree keeps that
// node's load at most W and never raises the escape, so along n a
// feasible cell is followed by feasible cells with no larger value.
// MinCostSolver therefore keeps every table as run rows only, one per
// count e, and folds every child with one run kernel. Decisions are
// rebuilt from the retained step tables in the order a dense scan
// would have found them, and the compressed_test.go suite checks
// placements, tie-breaks and every node's table against a test-only
// dense reference, the invariant included, across drift sequences and
// worker counts.
//
// For QoS the invariant is a theorem once a cell whose escaping flow
// exceeds W counts as infeasible. Such a cell can never be absorbed,
// since every equipped ancestor checks its own load against W, so
// dropping it changes no answer. Without the cap the dense tables do
// break the contract; with it, equipping one more node of a subtree
// whose escaping flow is at most W keeps that node's load at most W,
// and it never raises the escape or tightens the QoS requirement.
// QoSSolver therefore keeps every table as run rows only, one per
// requirement, rebuilds splits and closure choices from the retained
// step tables in the dense scan's order, and the same suite checks it
// against a test-only dense reference capped at W.
//
// For the power DP, with or without pre-existing servers, the
// invariant is a theorem along n_M within each row's effective length:
// the subtree's non-pre nodes left after the other modes' new servers
// (reuse counts use pre-existing nodes only). Below that length a free
// non-pre node exists by pigeonhole, and a mode-M server there absorbs
// the flow through it, which is at most W_M because it either reaches a
// server of capacity at most W_M or escapes as a reached value; past
// it the row is unreached by pigeonhole. PowerDP therefore keeps every
// table as run rows along n_M, one per combination of the other
// fields, and folds every child with one run kernel. The root scan
// prices only the run starts of the root's rows: within a run every
// later cell adds a mode-M server, which costs at least 1 more and
// burns NodePower(M) > 0 more, so it is dominated. Decisions are
// re-derived from the retained step tables in the dense scan's order,
// and the same suite checks fronts and placements against a test-only
// dense reference, while minpower_oracle_test.go checks every merge
// step's values and decisions cell by cell.
package core
