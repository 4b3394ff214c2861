package tree

import (
	"errors"
	"fmt"
)

// CapOf maps a 1-based operating mode to its request capacity. It is
// how the flow engine asks for capacities without depending on the
// power package's model type.
type CapOf func(mode uint8) int

// ErrInfeasible is the module-wide sentinel for "no placement at all
// can serve this instance". Every solver layer (core's exact programs,
// the greedy baseline, the heuristics) wraps it, so a single
// errors.Is(err, ErrInfeasible) distinguishes unsolvable instances
// from real errors whichever layer produced them.
var ErrInfeasible = errors.New("no valid placement exists")

// Result describes one flow evaluation: the number of requests absorbed
// by every node (zero for unequipped nodes) and the number of requests
// that reach past the root unserved. Loads aliases the engine's scratch
// buffer and is only valid until the engine's next evaluation; callers
// that retain it must copy.
type Result struct {
	Policy   Policy
	Loads    []int
	Unserved int
}

// FaultMask is the read-only up/down view the masked evaluators and
// solvers consult (implemented by failure.Mask). NodeUp reports whether
// node j is operational: a down node neither serves requests nor admits
// its attached clients, but traffic from its subtree still transits
// through it. LinkUp reports whether the link from node j to its parent
// is intact; a cut link blocks every request originating inside j's
// subtree from reaching a server outside it. LinkUp of the root is
// never consulted.
type FaultMask interface {
	NodeUp(j int) bool
	LinkUp(j int) bool
}

// MaskedResult describes one masked flow evaluation. On top of the
// embedded Result — whose Loads and Unserved keep their usual meaning,
// with Unserved counting only the demand that passes the root or has no
// server on its path (the same demand an unmasked evaluation would
// report lost) — it separates the losses the fault mask caused and
// attributes them to the node whose clients suffered them. Loads and
// UnservedAt alias the engine's scratch and are only valid until the
// engine's next evaluation.
type MaskedResult struct {
	Result
	// Issued is the total demand the tree's clients issued.
	Issued int
	// FailUnserved is the demand lost to failures: clients at down
	// nodes, requests bound (under the closest policy) to a down or
	// unreachable server, and requests trapped behind cut links.
	// Issued == sum(Loads) + Unserved + FailUnserved.
	FailUnserved int
	// UnservedAt[j] is the failure-lost demand of the clients attached
	// to node j; it sums to FailUnserved.
	UnservedAt []int
}

// Engine evaluates request flows for one tree under any access policy,
// with optional QoS and bandwidth constraints and an optional fault
// mask. All scratch state is preallocated and index-addressed at
// construction, so evaluations after the first perform no heap
// allocations and a reused engine turns flow evaluation into a pure
// array sweep — the building block every solver, heuristic and
// simulator in this repository shares. An Engine is not safe for
// concurrent use; create one per goroutine (construction is O(N)).
type Engine struct {
	t *Tree

	loads []int // absorbed requests per node (aliased by Result.Loads)
	up    []int // closest routing: demand of j's clients, then (linkFlows) flow across j -> parent(j)
	srv   []int // closest routing: forced server of j's clients (see closest)

	// Upwards and Multiple scratch: pending client demands, kept as a
	// stack aligned with the post-order traversal so that the demands
	// still pending inside subtree(j) form the contiguous tail
	// pend[pendBase[first(j)]:].
	pend     []pending
	pendBase []int // stack length before post[i] was processed
	size     []int // subtree sizes (including the node itself)

	unservedAt []int // failure-lost demand per origin node (masked evaluations)

	w       int   // capacity used by the uniform-capacity closure
	uniform CapOf // returns w; avoids a per-call closure allocation
}

// NewEngine returns a flow engine for t. The engine keeps a reference
// to t; topology must not change afterwards (request counts may).
func NewEngine(t *Tree) *Engine {
	e := &Engine{}
	e.uniform = func(uint8) int { return e.w }
	e.Reset(t)
	return e
}

// Reset rebinds the engine to tree t, reusing every scratch slice whose
// capacity suffices, so per-worker pools sweeping many trees skip the
// construction allocations of NewEngine after the first tree of each
// size.
func (e *Engine) Reset(t *Tree) {
	n := t.N()
	e.t = t
	e.loads = growScratch(e.loads, n)
	e.up = growScratch(e.up, n)
	e.pendBase = growScratch(e.pendBase, n)
	e.size = growScratch(e.size, n)
	e.srv = growScratch(e.srv, n)
	for _, j := range t.post {
		s := 1
		for _, c := range t.Children(j) {
			s += e.size[c]
		}
		e.size[j] = s
	}
}

// growScratch returns a slice of length n with unspecified contents,
// reusing s's capacity when possible.
func growScratch(s []int, n int) []int {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int, n)
}

// Tree returns the tree the engine evaluates.
func (e *Engine) Tree() *Tree { return e.t }

// eval is the single entry point of every evaluation: one pass per
// policy, where a nil c means unconstrained and a nil m means every
// node and link is up. Under the closest policy routing is forced by
// the placement, so c cannot change the result and is not consulted.
// It panics on a replica set of the wrong size, a nil capOf under the
// upwards or multiple policies, or an unknown policy.
func (e *Engine) eval(r *Replicas, p Policy, capOf CapOf, c *Constraints, m FaultMask) MaskedResult {
	if r.N() != e.t.N() {
		panic(fmt.Sprintf("tree: flow evaluation with replica set of size %d on tree of size %d", r.N(), e.t.N()))
	}
	if p != PolicyClosest && p.Valid() && capOf == nil {
		panic(fmt.Sprintf("tree: evaluation under the %s policy needs capacities", p))
	}
	switch p {
	case PolicyClosest:
		return e.closest(r, m)
	case PolicyUpwards:
		return e.upwards(r, capOf, c, m)
	case PolicyMultiple:
		return e.multiple(r, capOf, c, m)
	}
	panic(fmt.Sprintf("tree: evaluation with unknown policy %d", uint8(p)))
}

// capW points the uniform-capacity closure at W.
func (e *Engine) capW(W int) CapOf {
	e.w = W
	return e.uniform
}

// Eval evaluates replica set r under policy p. capOf supplies per-mode
// capacities; it may be nil for PolicyClosest, whose routing ignores
// capacities (requests stop at the first equipped ancestor even when it
// overloads — Validate reports the overload). For PolicyUpwards and
// PolicyMultiple, routing is capacity-aware: a server absorbs at most
// its capacity and the remainder continues toward the root, so returned
// loads never exceed capacities and Unserved alone decides feasibility.
func (e *Engine) Eval(r *Replicas, p Policy, capOf CapOf) Result {
	return e.eval(r, p, capOf, nil, nil).Result
}

// EvalUniform is Eval with every mode mapped to the single capacity W.
func (e *Engine) EvalUniform(r *Replicas, p Policy, W int) Result {
	return e.eval(r, p, e.capW(W), nil, nil).Result
}

// EvalConstrained evaluates replica set r under policy p with QoS and
// bandwidth constraints c. A nil c is Eval. Under PolicyClosest the
// routing is forced by the placement, so constraints cannot change the
// result and EvalConstrained equals Eval (ValidateConstrained reports
// the violations); under PolicyUpwards and PolicyMultiple requests that
// cannot reach any server within their QoS bound or across a saturated
// link count into Unserved and loads respect both capacities and
// constraints. Like Eval, it panics on a replica set of the wrong size
// or a missing capOf for the relaxed policies; the replicatree facade
// wraps it with error-returning guards for untrusted input.
func (e *Engine) EvalConstrained(r *Replicas, p Policy, capOf CapOf, c *Constraints) Result {
	return e.eval(r, p, capOf, c, nil).Result
}

// EvalUniformConstrained is EvalConstrained with a single capacity W.
func (e *Engine) EvalUniformConstrained(r *Replicas, p Policy, W int, c *Constraints) Result {
	return e.eval(r, p, e.capW(W), c, nil).Result
}

// EvalMasked evaluates replica set r under policy p with fault mask m
// (nil means everything up, reproducing Eval's loads exactly). See
// FaultMask for the fault semantics and the failure package's
// documentation for the degradation contract: under the closest policy
// requests bound to a failed server are lost, under the upwards and
// multiple policies they climb past down servers and may be absorbed
// higher up. capOf may be nil only for PolicyClosest.
func (e *Engine) EvalMasked(r *Replicas, p Policy, capOf CapOf, m FaultMask) MaskedResult {
	e.unservedAt = growScratch(e.unservedAt, e.t.N())
	clear(e.unservedAt)
	res := e.eval(r, p, capOf, nil, m)
	res.Issued = e.t.TotalRequests()
	return res
}

// EvalUniformMasked is EvalMasked with every mode mapped to capacity W.
func (e *Engine) EvalUniformMasked(r *Replicas, p Policy, W int, m FaultMask) MaskedResult {
	return e.EvalMasked(r, p, e.capW(W), m)
}

// Validate checks that r is a valid solution for the engine's tree
// under policy p: every request is served and no server exceeds the
// capacity of its operating mode. Under PolicyClosest the routing is
// capacity-oblivious, so both unserved requests and overloads can
// occur; under PolicyUpwards and PolicyMultiple routing is
// capacity-aware and only unserved requests remain to report (for
// Upwards the check is conservative — see Policy).
func (e *Engine) Validate(r *Replicas, p Policy, capOf CapOf) error {
	return e.ValidateConstrained(r, p, capOf, nil)
}

// ValidateUniform is Validate with a single capacity W for every mode.
func (e *Engine) ValidateUniform(r *Replicas, p Policy, W int) error {
	return e.ValidateConstrained(r, p, e.capW(W), nil)
}

// ValidateConstrained checks that r serves every client under policy p
// within capacities, QoS bounds and link bandwidths. A nil c is
// Validate. Under PolicyClosest the forced routing is checked against
// all three constraint families, in that order and each in node order;
// under the relaxed policies the constrained evaluation already routes
// within the constraints, so only unserved requests remain to report
// (conservatively for Upwards — see Policy).
func (e *Engine) ValidateConstrained(r *Replicas, p Policy, capOf CapOf, c *Constraints) error {
	res := e.eval(r, p, capOf, c, nil)
	if res.Unserved > 0 {
		return &CapacityError{Node: -1, Load: res.Unserved, Policy: p}
	}
	if p != PolicyClosest {
		return nil
	}
	for j, l := range res.Loads {
		if r.Has(j) {
			if cp := capOf(r.Mode(j)); l > cp {
				return &CapacityError{Node: j, Load: l, Cap: cp, Policy: p}
			}
		}
	}
	if c == nil {
		return nil
	}
	t := e.t
	for j := 0; j < t.N(); j++ {
		for k, d := range t.Clients(j) {
			if q := c.QoS(j, k); d > 0 && q > 0 {
				// Unserved == 0, so every demand-carrying node has a server.
				s := e.srv[j]
				if dist := t.depth[j] - t.depth[s] + 1; dist > q {
					return &QoSError{Node: j, Client: k, Server: s, Dist: dist, Limit: q}
				}
			}
		}
	}
	e.linkFlows(r)
	for j := 1; j < t.N(); j++ {
		if bw := c.Bandwidth(j); bw >= 0 && e.up[j] > bw {
			return &BandwidthError{Node: j, Flow: e.up[j], Cap: bw}
		}
	}
	return nil
}

// ValidateUniformConstrained is ValidateConstrained with a single
// capacity W for every mode.
func (e *Engine) ValidateUniformConstrained(r *Replicas, p Policy, W int, c *Constraints) error {
	return e.ValidateConstrained(r, p, e.capW(W), c)
}

// ClosestRouting evaluates the forced closest routing of r: up[j] is
// the flow crossing the link j -> parent(j) and servingDepth[j] is the
// depth of the node serving j's clients (-1 when no equipped node
// covers j). It is the single source of truth for closest routing that
// constraint accounting builds on (the simulator's SLA tallies, the
// engine's own constrained validation). Both slices alias engine
// scratch and are only valid until the next evaluation.
func (e *Engine) ClosestRouting(r *Replicas) (up, servingDepth []int) {
	e.eval(r, PolicyClosest, nil, nil, nil)
	e.linkFlows(r)
	for j, s := range e.srv {
		if s >= 0 {
			e.srv[j] = e.t.depth[s]
		}
	}
	return e.up, e.srv
}

// Flows evaluates a replica set under the paper's closest service policy:
// every request travels from its client toward the root and is absorbed
// by the first equipped node it meets. It returns the resulting load of
// every node (zero for unequipped nodes) and the number of requests that
// escape the root unserved. A valid solution has unserved == 0.
//
// Flows constructs a throwaway engine; callers evaluating many replica
// sets on one tree should hold a NewEngine instead.
func Flows(t *Tree, r *Replicas) (loads []int, unserved int) {
	return FlowsConstrained(t, r, PolicyClosest, 0, nil)
}

// FlowsPolicy evaluates a replica set under an arbitrary access policy
// with the single capacity W (see Engine.Eval for the semantics).
func FlowsPolicy(t *Tree, r *Replicas, p Policy, W int) (loads []int, unserved int) {
	return FlowsConstrained(t, r, p, W, nil)
}

// FlowsConstrained evaluates a replica set under policy p with a single
// capacity W and constraints c, constructing a throwaway engine (hold a
// NewEngine to evaluate many sets on one tree).
func FlowsConstrained(t *Tree, r *Replicas, p Policy, W int, c *Constraints) (loads []int, unserved int) {
	res := NewEngine(t).EvalUniformConstrained(r, p, W, c)
	return res.Loads, res.Unserved
}

// ServerFor returns the node serving the clients attached to node j under
// the closest policy (j itself if equipped, else its nearest equipped
// ancestor), or -1 if no equipped node lies on the path to the root.
func ServerFor(t *Tree, r *Replicas, j int) int {
	for n := j; n >= 0; n = t.parent[n] {
		if r.Has(n) {
			return n
		}
	}
	return -1
}

// Assignments returns, for every internal node, the server that handles
// the requests of its attached clients (-1 when unserved) under the
// closest policy, the only policy whose node-to-server map is unique.
// Nodes without clients still get an entry, describing where their
// clients would be served.
func Assignments(t *Tree, r *Replicas) []int {
	e := NewEngine(t)
	e.eval(r, PolicyClosest, nil, nil, nil)
	return e.srv
}

// CapacityError describes a violated constraint found by Validate.
type CapacityError struct {
	Node   int    // overloaded server, or -1 for unserved requests
	Load   int    // offending load (or count of unserved requests)
	Cap    int    // capacity that was exceeded (0 for unserved)
	Policy Policy // access policy the check ran under
}

func (e *CapacityError) Error() string {
	if e.Node < 0 {
		if e.Policy == PolicyClosest {
			return fmt.Sprintf("tree: %d requests reach the root unserved", e.Load)
		}
		return fmt.Sprintf("tree: %d requests reach the root unserved under the %s policy", e.Load, e.Policy)
	}
	return fmt.Sprintf("tree: server at node %d carries %d requests, capacity %d", e.Node, e.Load, e.Cap)
}

// QoSError reports a client served beyond its QoS bound under the
// closest policy.
type QoSError struct {
	Node   int // node the client is attached to
	Client int // index within Tree.Clients(Node)
	Server int // node that serves the client
	Dist   int // hops between client and server (client edge included)
	Limit  int // the violated QoS bound
}

func (e *QoSError) Error() string {
	return fmt.Sprintf("tree: client %d of node %d is served by node %d at distance %d > QoS %d",
		e.Client, e.Node, e.Server, e.Dist, e.Limit)
}

// BandwidthError reports a link carrying more requests than its
// bandwidth under the closest policy.
type BandwidthError struct {
	Node int // the link is Node -> parent(Node)
	Flow int // requests crossing the link
	Cap  int // the violated bandwidth
}

func (e *BandwidthError) Error() string {
	return fmt.Sprintf("tree: link %d->parent carries %d requests, bandwidth %d", e.Node, e.Flow, e.Cap)
}

// Validate checks that r is a valid solution for t under the closest
// policy: every request is served and every equipped node's load is
// within the capacity of its operating mode, as given by capOf (1-based
// mode index -> capacity). See Engine.Validate for other policies.
func Validate(t *Tree, r *Replicas, capOf func(mode uint8) int) error {
	return NewEngine(t).Validate(r, PolicyClosest, capOf)
}

// ValidateUniform checks a single-capacity closest-policy solution:
// every replica (whatever its mode) may carry at most W requests.
func ValidateUniform(t *Tree, r *Replicas, W int) error {
	return ValidateConstrained(t, r, PolicyClosest, W, nil)
}

// ValidatePolicy checks a single-capacity solution under an arbitrary
// access policy.
func ValidatePolicy(t *Tree, r *Replicas, p Policy, W int) error {
	return ValidateConstrained(t, r, p, W, nil)
}

// ValidateConstrained checks a single-capacity solution under policy p
// with constraints c. See Engine.ValidateConstrained.
func ValidateConstrained(t *Tree, r *Replicas, p Policy, W int, c *Constraints) error {
	return NewEngine(t).ValidateUniformConstrained(r, p, W, c)
}
