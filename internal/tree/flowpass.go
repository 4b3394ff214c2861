package tree

import "slices"

// This file holds the flow engine's three passes, one per access
// policy. Each serves plain, constrained (QoS and bandwidth, arXiv
// 0706.3350) and masked (node and link faults) evaluation: a nil
// *Constraints or a nil FaultMask selects the plain case inline. Under
// a fault mask, down servers serve nothing, clients at down nodes are
// lost at the source and a cut link loses everything still pending
// below it; under Closest a request bound to a dead server is lost,
// under Upwards and Multiple it climbs on.

// pending is one entry of the Upwards and Multiple passes' stack.
type pending struct {
	d      int   // requests still pending
	bound  int32 // minimal depth of a server its QoS allows (0 = any)
	origin int32 // node whose clients issued the requests
}

// byUrgency orders pending demands by bound descending (the tightest
// deadline first), then demand descending, then origin descending. It
// is the one order of both relaxed passes: Upwards absorbs from the
// front, and the origin tie-break fixes which of two equal demands a
// server keeps, so the per-origin loss attribution is deterministic.
func byUrgency(a, b pending) int {
	switch {
	case a.bound != b.bound:
		return int(b.bound - a.bound)
	case a.d != b.d:
		return b.d - a.d
	}
	return int(b.origin - a.origin)
}

// closest routes under the forced closest policy: every request is
// bound to its first equipped ancestor whether or not that ancestor is
// up, so a down server, a down access node or a cut link on the way
// loses the request. Constraints never change this routing;
// ValidateConstrained checks it against them. One top-down pass (post
// order reversed visits parents first) records in e.srv, per node, the
// forced server s of its clients — s when the path to s is live, -2-s
// when it is not, -1 when no equipped node covers it — leaves the
// node's demand in e.up for linkFlows, and adds it onto s.
func (e *Engine) closest(r *Replicas, m FaultMask) MaskedResult {
	t := e.t
	res := e.start(PolicyClosest)
	clear(e.loads)
	for i := len(t.post) - 1; i >= 0; i-- {
		j := t.post[i]
		s := -1
		switch {
		case r.Has(j):
			s = j
			if m != nil && !m.NodeUp(j) {
				s = -2 - j
			}
		case j != t.Root():
			s = e.srv[t.parent[j]]
			if s >= 0 && m != nil && !m.LinkUp(j) {
				s = -2 - s
			}
		}
		d := t.ClientSum(j)
		e.srv[j], e.up[j] = s, d
		switch {
		case d == 0:
		case s < -1 || m != nil && !m.NodeUp(j):
			e.lose(&res, j, d)
		case s < 0:
			res.Unserved += d // no server on the path: lost as without failures
		default:
			e.loads[s] += d
		}
	}
	return res
}

// linkFlows turns the per-node demands the closest pass left in e.up
// into the closest routing's flow across every link j -> parent(j),
// bottom-up; the root's entry is the unserved demand.
func (e *Engine) linkFlows(r *Replicas) {
	t := e.t
	for _, j := range t.post {
		if r.Has(j) {
			e.up[j] = 0
			continue
		}
		for _, c := range t.Children(j) {
			e.up[j] += e.up[c]
		}
	}
}

// upwards assigns whole clients to servers: pending client demands
// climb toward the root and every live equipped node keeps the most
// urgent demands that fit (best-fit decreasing per deadline class:
// tightest QoS bound, then largest demand), forwarding the rest.
// Expiry and bandwidth cuts work as under multiple, on whole clients.
// The pass is sound — a zero Unserved proves the placement valid — but
// may over-reject, since deciding Upwards feasibility is NP-complete
// (bin packing on the root path); the core package's exhaustive search
// is the exact reference on small trees.
func (e *Engine) upwards(r *Replicas, capOf CapOf, c *Constraints, m FaultMask) MaskedResult {
	t := e.t
	res := e.start(PolicyUpwards)
	for i, j := range t.post {
		e.pendBase[i] = len(e.pend)
		live := m == nil || m.NodeUp(j)
		if live {
			for k, d := range t.Clients(j) {
				if d > 0 {
					e.pend = append(e.pend, pending{d, int32(c.MinServerDepth(j, k, t.depth[j])), int32(j)})
				}
			}
		} else {
			e.lose(&res, j, t.ClientSum(j))
		}
		e.loads[j] = 0
		server := live && r.Has(j)
		cut := m != nil && j != t.Root() && !m.LinkUp(j)
		if !server && c == nil && !cut {
			continue // nothing to absorb, expire or lose here
		}
		base := e.pendBase[i-e.size[j]+1]
		if server {
			if seg, cp := e.pend[base:], capOf(r.Mode(j)); !e.keepAll(j, base, cp) {
				slices.SortFunc(seg, byUrgency)
				load := 0
				for k := range seg {
					if load+seg[k].d <= cp {
						load += seg[k].d
						seg[k].d = 0
					}
				}
				e.loads[j] = load
			}
		}
		if j == t.Root() {
			break // the root comes last; what remains is summed below
		}
		if c != nil || cut {
			e.climb(&res, base, j, c, cut, false)
		} else if e.loads[j] > 0 { // just drop what the server absorbed
			e.pend = e.pend[:base+compact(e.pend[base:])]
		}
	}
	return e.finish(res)
}

// multiple routes splittable flows: every live equipped node absorbs as
// much of its subtree's pending flow as its capacity allows, tightest
// QoS bound first when constrained and oldest first otherwise, and
// forwards the rest; demands expire once they would have to climb
// above their bound's depth, and a saturated link cuts the tightest
// first. This single pass is an exact feasibility test: a server can
// only serve requests from its own subtree, a subset of what any
// ancestor can serve, and the ancestors able to serve a pending demand
// form a chain nested by its depth bound, so saturating bottom-up,
// tightest first, is never worse than any other split (cross-checked
// against a max-flow formulation and an exhaustive unit-level search
// in the core package's tests). Each node's clients without a QoS
// bound travel as one aggregated entry.
func (e *Engine) multiple(r *Replicas, capOf CapOf, c *Constraints, m FaultMask) MaskedResult {
	t := e.t
	res := e.start(PolicyMultiple)
	for i, j := range t.post {
		e.pendBase[i] = len(e.pend)
		live := m == nil || m.NodeUp(j)
		if live {
			agg := 0
			if c == nil { // every client unbounded: one entry for the node
				agg = t.ClientSum(j)
			} else {
				for k, d := range t.Clients(j) {
					if l := c.MinServerDepth(j, k, t.depth[j]); l > 0 && d > 0 {
						e.pend = append(e.pend, pending{d, int32(l), int32(j)})
					} else {
						agg += d
					}
				}
			}
			if agg > 0 {
				e.pend = append(e.pend, pending{agg, 0, int32(j)})
			}
		} else {
			e.lose(&res, j, t.ClientSum(j))
		}
		e.loads[j] = 0
		server := live && r.Has(j)
		cut := m != nil && j != t.Root() && !m.LinkUp(j)
		if !server && c == nil && !cut {
			continue
		}
		base := e.pendBase[i-e.size[j]+1]
		if server {
			if seg, cp := e.pend[base:], capOf(r.Mode(j)); !e.keepAll(j, base, cp) {
				if c != nil {
					slices.SortFunc(seg, byUrgency)
				}
				e.loads[j] = drain(seg, cp)
			}
		}
		if j == t.Root() {
			break
		}
		if c != nil || cut {
			e.climb(&res, base, j, c, cut, true)
		} else if e.loads[j] > 0 {
			e.pend = e.pend[:base+compact(e.pend[base:])]
		}
	}
	return e.finish(res)
}

// climb moves the demands still pending in subtree(j), the stack tail
// from base, across the link above non-root node j. Under constraints,
// demands whose QoS bound forbids the parent's depth expire into
// Unserved, and what exceeds the link's bandwidth is dropped: split
// flows lose their tightest requests first (the loosest are servable
// wherever a tighter one is, and higher still), whole clients cross
// loosest first while they fit (the loosest have the most chances
// above). Across a cut link everything left is lost to the failure.
func (e *Engine) climb(res *MaskedResult, base, j int, c *Constraints, cut, split bool) {
	seg := e.pend[base:]
	if c != nil {
		total, pd := 0, e.t.depth[e.t.parent[j]]
		for k := range seg {
			if int(seg[k].bound) > pd {
				res.Unserved += seg[k].d
				seg[k].d = 0
			} else {
				total += seg[k].d
			}
		}
		if bw := c.Bandwidth(j); bw >= 0 && total > bw {
			slices.SortFunc(seg, byUrgency)
			if split {
				res.Unserved += drain(seg, total-bw)
			} else {
				for k := len(seg) - 1; k >= 0; k-- {
					if seg[k].d <= bw {
						bw -= seg[k].d
					} else {
						res.Unserved += seg[k].d
						seg[k].d = 0
					}
				}
			}
		}
	}
	if cut {
		for _, p := range seg {
			e.lose(res, int(p.origin), p.d)
		}
		e.pend = e.pend[:base]
		return
	}
	e.pend = e.pend[:base+compact(seg)]
}

// keepAll lets server j absorb every demand pending in its subtree, the
// stack tail from base, when their total fits capacity cp: the order of
// absorption then does not matter, so neither pass sorts or splits.
func (e *Engine) keepAll(j, base, cp int) bool {
	total := 0
	for _, p := range e.pend[base:] {
		total += p.d
	}
	if total > cp {
		return false
	}
	e.loads[j] = total
	e.pend = e.pend[:base]
	return true
}

// compact drops the exhausted entries of seg, preserving order, and
// returns how many remain.
func compact(seg []pending) int {
	w := 0
	for _, p := range seg {
		if p.d > 0 {
			seg[w] = p
			w++
		}
	}
	return w
}

// drain takes up to n requests from seg in order, splitting the last
// entry it touches, and returns how many it took.
func drain(seg []pending, n int) int {
	took := 0
	for k := 0; k < len(seg) && took < n; k++ {
		x := min(seg[k].d, n-took)
		seg[k].d -= x
		took += x
	}
	return took
}

// start opens a pass under policy p with an empty pending stack.
func (e *Engine) start(p Policy) MaskedResult {
	e.pend = e.pend[:0]
	return MaskedResult{Result: Result{Policy: p, Loads: e.loads}, UnservedAt: e.unservedAt}
}

// finish counts what is still pending past the root as unserved.
func (e *Engine) finish(res MaskedResult) MaskedResult {
	for _, p := range e.pend {
		res.Unserved += p.d
	}
	return res
}

// lose counts demand d of node j's clients as lost to a failure.
func (e *Engine) lose(res *MaskedResult, j, d int) {
	res.FailUnserved += d
	e.unservedAt[j] += d
}
