package tree

import "fmt"

// NoBandwidthLimit marks a link without a bandwidth constraint.
const NoBandwidthLimit = -1

// Constraints augments a tree with the QoS and bandwidth model of
// Rehn-Sonigo, "Optimal Replica Placement in Tree Networks with QoS and
// Bandwidth Constraints and the Closest Allocation Policy" (arXiv
// 0706.3350):
//
//   - Each client may carry a QoS bound q: its requests must be served
//     within q hops. The client's own edge to its attachment node
//     counts, so a replica on the attachment node itself is 1 hop away
//     and q = 1 forces a replica there. Values q <= 0 mean "no bound"
//     (the default for every client).
//   - Each tree link j -> parent(j) may carry a bandwidth capacity: the
//     total number of requests crossing the link per time unit. A
//     negative capacity (NoBandwidthLimit, the default) means the link
//     is unconstrained; 0 is a real constraint forbidding any crossing
//     flow.
//
// A nil *Constraints everywhere in this repository means "no
// constraints"; an all-default Constraints value is equivalent.
// Constraints are attached to a specific tree only through their
// shapes; Validate checks the fit.
type Constraints struct {
	qos [][]int // per node, aligned with Tree.Clients(j); nil list = all unbounded
	bw  []int   // capacity of the link j -> parent(j); entry 0 (the root) is unused
	gen uint64  // mutation counter, advanced by every effective setter call
}

// NewConstraints returns an all-unbounded constraint set sized for t.
func NewConstraints(t *Tree) *Constraints {
	c := &Constraints{qos: make([][]int, t.N()), bw: make([]int, t.N())}
	for j := range c.bw {
		c.bw[j] = NoBandwidthLimit
	}
	return c
}

// Reset rebinds c to tree t as an all-unbounded set, reusing the
// per-node storage where capacities allow (the pooled-solver analogue
// of NewConstraints). It counts as a mutation: the generation advances.
func (c *Constraints) Reset(t *Tree) {
	n := t.N()
	if cap(c.qos) >= n {
		c.qos = c.qos[:n]
	} else {
		c.qos = make([][]int, n)
	}
	for j := range c.qos {
		c.qos[j] = c.qos[j][:0] // zero-length list = every client unbounded
	}
	c.bw = growScratch(c.bw, n)
	for j := range c.bw {
		c.bw[j] = NoBandwidthLimit
	}
	c.gen++
}

// N returns the number of nodes the constraints are defined over.
func (c *Constraints) N() int { return len(c.bw) }

// QoS returns the QoS bound of the k-th client of node j, or 0 when the
// client is unconstrained (including clients never mentioned in c and
// every client of a nil set).
func (c *Constraints) QoS(j, k int) int {
	if c == nil || j < 0 || j >= len(c.qos) || k < 0 || k >= len(c.qos[j]) {
		return 0
	}
	if q := c.qos[j][k]; q > 0 {
		return q
	}
	return 0
}

// SetQoS bounds the k-th client of node j to q hops (q <= 0 removes the
// bound). The per-node list grows as needed; Validate checks it against
// the tree's actual client count.
func (c *Constraints) SetQoS(j, k, q int) {
	if j < 0 || j >= len(c.qos) || k < 0 {
		panic(fmt.Sprintf("tree: SetQoS(%d, %d) out of range", j, k))
	}
	for len(c.qos[j]) <= k {
		c.qos[j] = append(c.qos[j], 0)
	}
	if q < 0 {
		q = 0
	}
	if c.qos[j][k] != q {
		c.qos[j][k] = q
		c.gen++
	}
}

// SetUniformQoS bounds every client of t to q hops (q <= 0 removes all
// bounds).
func (c *Constraints) SetUniformQoS(t *Tree, q int) {
	for j := 0; j < t.N() && j < len(c.qos); j++ {
		for k := range t.Clients(j) {
			c.SetQoS(j, k, q)
		}
	}
}

// Bandwidth returns the capacity of the link j -> parent(j), or
// NoBandwidthLimit when the link is unconstrained. The root has no
// upward link; its entry is reported as unconstrained, as is every link
// of a nil set.
func (c *Constraints) Bandwidth(j int) int {
	if c == nil || j <= 0 || j >= len(c.bw) || c.bw[j] < 0 {
		return NoBandwidthLimit
	}
	return c.bw[j]
}

// SetBandwidth caps the link j -> parent(j) at bw requests (negative
// removes the cap).
func (c *Constraints) SetBandwidth(j, bw int) {
	if j < 0 || j >= len(c.bw) {
		panic(fmt.Sprintf("tree: SetBandwidth(%d) out of range", j))
	}
	if bw < 0 {
		bw = NoBandwidthLimit
	}
	if c.bw[j] != bw {
		c.bw[j] = bw
		c.gen++
	}
}

// Generation returns a counter advanced by every setter call that
// changed a bound. Caches keyed on a constraint set (for example
// core.QoSSolver's per-node tables) compare it to detect out-of-band
// mutations between solves; a nil set reports generation 0.
func (c *Constraints) Generation() uint64 {
	if c == nil {
		return 0
	}
	return c.gen
}

// SetUniformBandwidth caps every non-root link at bw requests (negative
// removes every cap).
func (c *Constraints) SetUniformBandwidth(bw int) {
	for j := 1; j < len(c.bw); j++ {
		c.SetBandwidth(j, bw)
	}
}

// Bounded reports whether any QoS or bandwidth constraint is set.
func (c *Constraints) Bounded() bool {
	if c == nil {
		return false
	}
	for _, qs := range c.qos {
		for _, q := range qs {
			if q > 0 {
				return true
			}
		}
	}
	for j := 1; j < len(c.bw); j++ {
		if c.bw[j] >= 0 {
			return true
		}
	}
	return false
}

// Validate checks that c fits tree t: node counts match and no node
// carries QoS bounds for more clients than it has. A nil receiver is
// valid for every tree.
func (c *Constraints) Validate(t *Tree) error {
	if c == nil {
		return nil
	}
	if c.N() != t.N() {
		return fmt.Errorf("tree: constraints cover %d nodes, tree has %d", c.N(), t.N())
	}
	for j := range c.qos {
		if len(c.qos[j]) > len(t.Clients(j)) {
			return fmt.Errorf("tree: node %d carries QoS bounds for %d clients but has %d",
				j, len(c.qos[j]), len(t.Clients(j)))
		}
	}
	return nil
}

// Clone returns a deep copy. Cloning a nil set returns nil.
func (c *Constraints) Clone() *Constraints {
	if c == nil {
		return nil
	}
	out := &Constraints{
		qos: make([][]int, len(c.qos)),
		bw:  append([]int(nil), c.bw...),
	}
	for j := range c.qos {
		out.qos[j] = append([]int(nil), c.qos[j]...)
	}
	return out
}

// MinServerDepth returns the deepest point in the tree the k-th client
// of node j (at depth d) may still be served: a replica serving it must
// sit at depth >= the returned value. 0 means the client is effectively
// unconstrained (any ancestor, including the root, is acceptable), as
// every client of a nil set is.
func (c *Constraints) MinServerDepth(j, k, d int) int {
	q := c.QoS(j, k)
	if q <= 0 {
		return 0
	}
	if l := d + 1 - q; l > 0 {
		return l
	}
	return 0
}
