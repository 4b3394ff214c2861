// Package tree implements the distribution-tree substrate of the paper:
// internal nodes that may host replica servers, leaf clients attached to
// internal nodes that issue requests, replica sets with operating modes,
// and the request-flow engine that every algorithm in this repository
// is built on.
//
// Flow evaluation is parametric in the access policy (see Policy),
// following Benoit, Rehn & Robert, "Strategies for Replica Placement in
// Tree Networks" (arXiv cs/0611034) and Rehn-Sonigo, "Optimal Replica
// Placement in Tree Networks with QoS and Bandwidth Constraints and the
// Closest Allocation Policy" (arXiv 0706.3350): Closest serves each
// request at the first equipped ancestor (the IPPS 2011 power paper's
// model and the default), Upwards lets a whole client bypass equipped
// ancestors, and Multiple additionally splits a client's requests
// across the servers of its root path. Feasible placements nest —
// Closest ⊆ Upwards ⊆ Multiple — which the tests verify against
// exhaustive searches. Engine holds preallocated scratch so that
// repeated evaluations on one tree are allocation-free; Flows,
// Validate and friends are one-shot wrappers around it. Constraints
// adds the per-client QoS bounds and per-link bandwidths of 0706.3350,
// enforced by the same pass per policy that serves plain and masked
// evaluation (see Engine.multiple for why its tightest-first order
// stays exact).
//
// Internal nodes are identified by dense integer ids 0..N-1 with node 0
// the root. Clients are not materialised as nodes: each internal node
// carries the list of request counts of the clients attached to it, which
// is equivalent to the paper's model (clients are leaves whose unique
// neighbour is an internal node) and keeps every algorithm allocation
// friendly.
package tree

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Tree is an immutable-topology distribution tree. Request counts are
// mutable through SetDemand and SetClientRequests (used by the
// dynamic-update experiments); the topology is fixed at Build time,
// matching the paper's fixed-network assumption.
//
// Children and client request counts are stored in CSR (compressed
// sparse row) layout: per-node spans into shared flat slices. At the
// 10^5-10^6 node scale the ROADMAP targets, the former [][]int layout
// cost one pointer-chased allocation per node; the flat layout streams
// cache-linearly during the bottom-up DP sweeps and flow passes and is
// built with O(1) allocations. Children(j)/Clients(j) keep returning
// []int by subslicing, so callers are unaffected — but the returned
// slices alias the shared arrays, which makes the long-documented
// "caller must not modify" contract load-bearing: writing through a
// returned slice corrupts neighbouring nodes' spans.
//
// Every demand mutation stamps the touched node with a fresh generation
// from a tree-local clock (see DemandGen). The arena-backed DP solvers
// in internal/core compare these stamps against the generation they
// last folded into each node's cached subtree table, which is what lets
// them recompute only the dirty ancestor chains of changed clients.
type Tree struct {
	parent []int // parent[j] is the parent id of node j; -1 for the root

	// Children of j are childIDs[childStart[j]:childStart[j+1]], in
	// ascending id order. Offsets are int32 (half the footprint of int
	// offsets at mega scale); payloads stay []int so the accessors can
	// subslice without conversion.
	childStart []int32
	childIDs   []int

	// Request counts of the clients attached to j are
	// clientReqs[clientStart[j]:clientStart[j+1]].
	clientStart []int32
	clientReqs  []int

	post  []int // post-order traversal: children before parents
	depth []int // depth[j], root has depth 0

	// Wave schedule for the subtree-parallel DP: wave h holds the nodes
	// of height h (leaves at height 0; height = 1 + max child height),
	// in ascending id order. Children always sit in strictly lower
	// waves, so processing waves in order with a barrier between them
	// is a valid bottom-up schedule whatever the parallelism inside a
	// wave. Stored as CSR spans like children and clients.
	waveStart []int32
	waveNodes []int

	clock     uint64   // monotone demand-mutation counter
	demandGen []uint64 // demandGen[j] is the clock value of node j's last mutation
}

// N returns the number of internal nodes.
func (t *Tree) N() int { return len(t.parent) }

// Root returns the id of the root node (always 0).
func (t *Tree) Root() int { return 0 }

// Parent returns the parent id of node j, or -1 for the root.
func (t *Tree) Parent(j int) int { return t.parent[j] }

// Children returns the internal-node children of node j in ascending id
// order. The returned slice aliases the tree's shared child array; the
// caller must not modify it.
func (t *Tree) Children(j int) []int {
	return t.childIDs[t.childStart[j]:t.childStart[j+1]]
}

// Clients returns the request counts of the clients attached to node j.
// The returned slice aliases the tree's shared client array; the caller
// must not modify it (use SetDemand or SetClientRequests).
func (t *Tree) Clients(j int) []int {
	return t.clientReqs[t.clientStart[j]:t.clientStart[j+1]]
}

// ClientSum returns the total number of requests issued by the clients
// attached to node j (the paper's client(j)).
func (t *Tree) ClientSum(j int) int {
	s := 0
	for _, r := range t.clientReqs[t.clientStart[j]:t.clientStart[j+1]] {
		s += r
	}
	return s
}

// SetClientRequests replaces the request counts of the clients attached to
// node j. The number of clients at j may change; the topology of internal
// nodes does not. The node's demand generation advances unless the new
// list equals the old one. Single-client edits in hot loops should use
// SetDemand, which mutates in place without allocating; a same-length
// replacement here is also in place, while a change in client count
// rebuilds the flat client array in O(total clients).
func (t *Tree) SetClientRequests(j int, reqs []int) {
	// A caller may (against Clients' contract) mutate the returned
	// internal slice in place and pass it back here; comparing it
	// against itself would skip the stamp and leave solver caches
	// stale, so aliased input always stamps.
	cur := t.Clients(j)
	aliased := len(reqs) > 0 && len(cur) > 0 && &reqs[0] == &cur[0]
	if !aliased && slices.Equal(cur, reqs) {
		return
	}
	if len(reqs) == len(cur) {
		copy(cur, reqs)
	} else {
		t.spliceClients(j, reqs)
	}
	t.touch(j)
}

// spliceClients replaces node j's client span with reqs, shifting the
// tail of the flat array and re-basing the offsets of the nodes after j.
func (t *Tree) spliceClients(j int, reqs []int) {
	lo, hi := t.clientStart[j], t.clientStart[j+1]
	tail := append([]int(nil), t.clientReqs[hi:]...)
	t.clientReqs = append(append(t.clientReqs[:lo], reqs...), tail...)
	delta := int32(len(reqs)) - (hi - lo)
	for k := j + 1; k < len(t.clientStart); k++ {
		t.clientStart[k] += delta
	}
}

// SetDemand sets the request count of the k-th client of node j,
// reporting whether the value actually changed. A changed value
// advances the node's demand generation (see DemandGen); setting the
// current value is a no-op and leaves caches warm. It panics on a
// negative count or an out-of-range client index, mirroring the
// builder's contract for driver code.
func (t *Tree) SetDemand(j, k, reqs int) bool {
	if reqs < 0 {
		panic(fmt.Sprintf("tree: SetDemand with negative requests %d", reqs))
	}
	cl := t.Clients(j)
	if k < 0 || k >= len(cl) {
		panic(fmt.Sprintf("tree: SetDemand(%d, %d): node has %d clients", j, k, len(cl)))
	}
	if cl[k] == reqs {
		return false
	}
	cl[k] = reqs
	t.touch(j)
	return true
}

// DemandGen returns the demand generation of node j: a value that
// strictly increases every time one of j's client demands changes.
// Solvers cache it per node to detect which subtrees went stale since
// their last solve. Generations are local to one tree (clones restart
// the comparison base by copying both stamps and clock).
func (t *Tree) DemandGen(j int) uint64 { return t.demandGen[j] }

// touch stamps node j with a fresh demand generation.
func (t *Tree) touch(j int) {
	t.clock++
	t.demandGen[j] = t.clock
}

// PostOrder returns a traversal in which every node appears after all of
// its children. The caller must not modify the returned slice.
func (t *Tree) PostOrder() []int { return t.post }

// Depth returns the depth of node j (root = 0).
func (t *Tree) Depth(j int) int { return t.depth[j] }

// Height returns the maximum node depth (equivalently, the height of
// the root: the length of the longest root-to-leaf path).
func (t *Tree) Height() int { return t.Waves() - 1 }

// Waves returns the number of height levels of the tree. Wave 0 is the
// leaves; the last wave contains exactly the root (the root's height
// strictly exceeds every other node's, since every non-root node lies
// inside one of its children's subtrees).
func (t *Tree) Waves() int { return len(t.waveStart) - 1 }

// Wave returns the nodes of height h in ascending id order. Every
// child of a wave-h node lies in a wave strictly below h, so the
// bottom-up DP sweeps may process any one wave in parallel once the
// previous waves are complete. The caller must not modify the returned
// slice.
func (t *Tree) Wave(h int) []int {
	return t.waveNodes[t.waveStart[h]:t.waveStart[h+1]]
}

// TotalRequests returns the total number of requests issued by all
// clients in the tree.
func (t *Tree) TotalRequests() int {
	s := 0
	for _, r := range t.clientReqs {
		s += r
	}
	return s
}

// ClientCount returns the total number of clients in the tree.
func (t *Tree) ClientCount() int { return len(t.clientReqs) }

// MaxClientSum returns the largest per-node client demand. Any solution
// must serve all clients of a node at a single ancestor server, so an
// instance is infeasible with capacity W whenever MaxClientSum() > W.
func (t *Tree) MaxClientSum() int {
	m := 0
	for j := 0; j < t.N(); j++ {
		if s := t.ClientSum(j); s > m {
			m = s
		}
	}
	return m
}

// SubtreeNodes returns the ids of the internal nodes in the subtree rooted
// at j, excluding j itself (the paper's subtree_j restricted to N).
func (t *Tree) SubtreeNodes(j int) []int {
	var out []int
	var stack []int
	stack = append(stack, t.Children(j)...)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, n)
		stack = append(stack, t.Children(n)...)
	}
	return out
}

// IsAncestor reports whether a is a strict ancestor of d.
func (t *Tree) IsAncestor(a, d int) bool {
	for p := t.parent[d]; p >= 0; p = t.parent[p] {
		if p == a {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the tree.
func (t *Tree) Clone() *Tree {
	return &Tree{
		parent:      append([]int(nil), t.parent...),
		childStart:  append([]int32(nil), t.childStart...),
		childIDs:    append([]int(nil), t.childIDs...),
		clientStart: append([]int32(nil), t.clientStart...),
		clientReqs:  append([]int(nil), t.clientReqs...),
		post:        append([]int(nil), t.post...),
		depth:       append([]int(nil), t.depth...),
		waveStart:   append([]int32(nil), t.waveStart...),
		waveNodes:   append([]int(nil), t.waveNodes...),
		clock:       t.clock,
		demandGen:   append([]uint64(nil), t.demandGen...),
	}
}

// clientLists materialises the per-node client request lists as a
// [][]int view (nil for client-less nodes, matching the historical
// in-memory layout). The non-nil entries alias the shared client array.
// Used by the JSON encoders, where the per-node allocation is fine.
func (t *Tree) clientLists() [][]int {
	out := make([][]int, t.N())
	for j := range out {
		if cl := t.Clients(j); len(cl) > 0 {
			out[j] = cl
		}
	}
	return out
}

// Stats summarises a tree for reports and logs.
type Stats struct {
	Nodes         int
	Clients       int
	TotalRequests int
	Height        int
	Leaves        int // internal nodes without internal children
	MaxClientSum  int
}

// Summary returns basic statistics about the tree.
func (t *Tree) Summary() Stats {
	s := Stats{
		Nodes:         t.N(),
		Clients:       t.ClientCount(),
		TotalRequests: t.TotalRequests(),
		Height:        t.Height(),
		MaxClientSum:  t.MaxClientSum(),
		Leaves:        len(t.Wave(0)),
	}
	return s
}

// String implements fmt.Stringer with a one-line summary.
func (t *Tree) String() string {
	s := t.Summary()
	return fmt.Sprintf("tree{nodes=%d clients=%d requests=%d height=%d}",
		s.Nodes, s.Clients, s.TotalRequests, s.Height)
}

// FromParents builds a tree from a parent vector (parents[0] must be -1,
// every other entry must point to a lower-numbered... any valid node) and
// per-node client request lists. clients may be shorter than parents; the
// missing tail is treated as empty.
func FromParents(parents []int, clients [][]int) (*Tree, error) {
	n := len(parents)
	if n == 0 {
		return nil, errors.New("tree: empty parent vector")
	}
	if parents[0] != -1 {
		return nil, fmt.Errorf("tree: node 0 must be the root (parent -1), got %d", parents[0])
	}
	if len(clients) > n {
		return nil, fmt.Errorf("tree: %d client lists for %d nodes", len(clients), n)
	}
	b := newRawBuilder(n)
	for j := 1; j < n; j++ {
		p := parents[j]
		if p < 0 || p >= n {
			return nil, fmt.Errorf("tree: node %d has out-of-range parent %d", j, p)
		}
		if p == j {
			return nil, fmt.Errorf("tree: node %d is its own parent", j)
		}
		b.parent[j] = p
	}
	for j := range clients {
		sum := 0
		for _, r := range clients[j] {
			if r < 0 {
				return nil, fmt.Errorf("tree: node %d has a client with negative requests %d", j, r)
			}
			// The solvers keep per-node demand in int32 DP tables;
			// reject sums whose cast would silently wrap (and keep the
			// running sum itself from overflowing here).
			if r > math.MaxInt32 || sum+r > math.MaxInt32 {
				return nil, fmt.Errorf("tree: node %d carries more than %d requests", j, math.MaxInt32)
			}
			sum += r
		}
		b.clients[j] = append([]int(nil), clients[j]...)
	}
	return b.finish()
}
