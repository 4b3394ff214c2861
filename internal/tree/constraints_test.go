package tree

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
)

// chainTree builds root -> 1 -> 2 -> ... -> depth with one client of
// demand d at the deepest node.
func qosChainTree(depth, d int) *Tree {
	b := NewBuilder()
	node := b.Root()
	for i := 0; i < depth; i++ {
		node = b.AddNode(node)
	}
	b.AddClient(node, d)
	return b.MustBuild()
}

func TestConstraintsAccessors(t *testing.T) {
	tr := qosChainTree(2, 5)
	c := NewConstraints(tr)
	if c.Bounded() {
		t.Fatal("fresh constraints should be unbounded")
	}
	c.SetQoS(2, 0, 3)
	if got := c.QoS(2, 0); got != 3 {
		t.Fatalf("QoS = %d, want 3", got)
	}
	if got := c.QoS(2, 5); got != 0 {
		t.Fatalf("QoS of unknown client = %d, want 0", got)
	}
	c.SetBandwidth(1, 7)
	if got := c.Bandwidth(1); got != 7 {
		t.Fatalf("Bandwidth = %d, want 7", got)
	}
	if got := c.Bandwidth(0); got != NoBandwidthLimit {
		t.Fatalf("root bandwidth = %d, want unbounded", got)
	}
	if !c.Bounded() {
		t.Fatal("constraints should report bounded")
	}
	clone := c.Clone()
	clone.SetQoS(2, 0, 9)
	if c.QoS(2, 0) != 3 {
		t.Fatal("Clone aliases the original")
	}
	var none *Constraints
	if none.Bounded() || none.QoS(2, 0) != 0 || none.MinServerDepth(2, 0, 2) != 0 || none.Bandwidth(1) != NoBandwidthLimit {
		t.Fatal("nil constraints should be unbounded")
	}
	if err := (*Constraints)(nil).Validate(tr); err != nil {
		t.Fatalf("nil constraints invalid: %v", err)
	}
}

func TestConstraintsValidateShapes(t *testing.T) {
	tr := qosChainTree(2, 5)
	other := qosChainTree(3, 5)
	c := NewConstraints(tr)
	if err := c.Validate(other); err == nil {
		t.Fatal("size mismatch accepted")
	}
	// More QoS bounds than clients at a node.
	c.SetQoS(1, 0, 2) // node 1 has no clients
	if err := c.Validate(tr); err == nil {
		t.Fatal("excess client bounds accepted")
	}
}

// TestClosestConstrainedValidate exercises the three violation families
// on a chain where the only server is the root.
func TestClosestConstrainedValidate(t *testing.T) {
	tr := qosChainTree(2, 5) // client at node 2, depth 2; server at root = 3 hops
	r := ReplicasOf(tr)
	r.Set(tr.Root(), 1)

	c := NewConstraints(tr)
	if err := ValidateConstrained(tr, r, PolicyClosest, 10, c); err != nil {
		t.Fatalf("unbounded constraints rejected a valid placement: %v", err)
	}

	c.SetQoS(2, 0, 2)
	err := ValidateConstrained(tr, r, PolicyClosest, 10, c)
	var qe *QoSError
	if !errors.As(err, &qe) {
		t.Fatalf("error = %v, want QoSError", err)
	}
	if qe.Node != 2 || qe.Server != 0 || qe.Dist != 3 || qe.Limit != 2 {
		t.Fatalf("QoSError = %+v", qe)
	}
	// A replica within range fixes it.
	r2 := r.Clone()
	r2.Set(1, 1)
	if err := ValidateConstrained(tr, r2, PolicyClosest, 10, c); err != nil {
		t.Fatalf("in-range placement rejected: %v", err)
	}

	c2 := NewConstraints(tr)
	c2.SetBandwidth(1, 4) // 5 requests must cross link 1->0
	err = ValidateConstrained(tr, r, PolicyClosest, 10, c2)
	var be *BandwidthError
	if !errors.As(err, &be) {
		t.Fatalf("error = %v, want BandwidthError", err)
	}
	if be.Node != 1 || be.Flow != 5 || be.Cap != 4 {
		t.Fatalf("BandwidthError = %+v", be)
	}

	// Capacity violations still surface.
	if err := ValidateConstrained(tr, r, PolicyClosest, 4, NewConstraints(tr)); err == nil {
		t.Fatal("overloaded server accepted")
	}
}

// TestRelaxedConstrainedEval checks that under the relaxed policies
// QoS-expired and bandwidth-cut requests surface as Unserved.
func TestRelaxedConstrainedEval(t *testing.T) {
	tr := qosChainTree(2, 5)
	r := ReplicasOf(tr)
	r.Set(tr.Root(), 1)
	for _, p := range []Policy{PolicyUpwards, PolicyMultiple} {
		c := NewConstraints(tr)
		c.SetQoS(2, 0, 2) // the root is out of range
		if res := NewEngine(tr).EvalUniformConstrained(r, p, 10, c); res.Unserved != 5 {
			t.Fatalf("%v: Unserved = %d, want 5 (QoS expiry)", p, res.Unserved)
		}
		c2 := NewConstraints(tr)
		c2.SetBandwidth(2, 3) // only 3 of 5 requests may leave node 2
		res := NewEngine(tr).EvalUniformConstrained(r, p, 10, c2)
		switch p {
		case PolicyMultiple:
			// Splittable: 3 cross and are served, 2 are cut.
			if res.Unserved != 2 || res.Loads[0] != 3 {
				t.Fatalf("multiple: Unserved = %d, root load = %d, want 2 and 3", res.Unserved, res.Loads[0])
			}
		case PolicyUpwards:
			// The whole client cannot cross.
			if res.Unserved != 5 {
				t.Fatalf("upwards: Unserved = %d, want 5", res.Unserved)
			}
		}
	}
}

// TestMultipleConstrainedDeadlines checks the deadline-aware absorb
// order: a server shared by a tight and a loose demand must spend its
// capacity on the tight one.
func TestMultipleConstrainedDeadlines(t *testing.T) {
	// root(0) - 1 - 2; clients: node 2 demand 4 with qos 2 (must be
	// served at depth >= 1), node 2 demand 4 unbounded. Servers at 1
	// (cap 4) and root (cap 4).
	b := NewBuilder()
	n1 := b.AddNode(b.Root())
	n2 := b.AddNode(n1)
	b.AddClient(n2, 4)
	b.AddClient(n2, 4)
	tr := b.MustBuild()
	c := NewConstraints(tr)
	c.SetQoS(n2, 0, 2)
	r := ReplicasOf(tr)
	r.Set(n1, 1)
	r.Set(tr.Root(), 1)
	res := NewEngine(tr).EvalUniformConstrained(r, PolicyMultiple, 4, c)
	if res.Unserved != 0 {
		t.Fatalf("Unserved = %d, want 0 (tight demand must be absorbed at node 1)", res.Unserved)
	}
	if res.Loads[n1] != 4 || res.Loads[tr.Root()] != 4 {
		t.Fatalf("loads = %v, want 4 at both servers", res.Loads)
	}
}

// randomPlacementTree draws a small random tree, constraints and
// placement for the containment property.
func randomPlacementTree(rng *rand.Rand) (*Tree, *Constraints, *Replicas) {
	n := 2 + rng.Intn(9)
	b := NewBuilder()
	nodes := []int{b.Root()}
	for len(nodes) < n {
		p := nodes[rng.Intn(len(nodes))]
		nodes = append(nodes, b.AddNode(p))
	}
	for _, j := range nodes {
		for k := rng.Intn(3); k > 0; k-- {
			b.AddClient(j, rng.Intn(5))
		}
	}
	tr := b.MustBuild()
	c := NewConstraints(tr)
	for j := 0; j < tr.N(); j++ {
		for k := range tr.Clients(j) {
			if rng.Intn(2) == 0 {
				c.SetQoS(j, k, 1+rng.Intn(4))
			}
		}
		if j > 0 && rng.Intn(2) == 0 {
			c.SetBandwidth(j, rng.Intn(10))
		}
	}
	r := ReplicasOf(tr)
	for j := 0; j < tr.N(); j++ {
		if rng.Intn(2) == 0 {
			r.Set(j, 1)
		}
	}
	return tr, c, r
}

// TestConstrainedContainment is the randomized containment property:
// a placement the constrained validation accepts is also accepted
// without constraints, and the constrained evaluation never serves more
// than the unconstrained one. The check covers the exact passes
// (Closest and Multiple); the Upwards certifier is a heuristic whose
// assignment order differs between the two variants, so its containment
// is established against the exact references in the core package's
// TestBruteFeasibleConstrainedContainment instead.
func TestConstrainedContainment(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 1500; trial++ {
		tr, c, r := randomPlacementTree(rng)
		W := 1 + rng.Intn(10)
		eng := NewEngine(tr)
		for _, p := range []Policy{PolicyClosest, PolicyMultiple} {
			conErr := eng.ValidateUniformConstrained(r, p, W, c)
			unErr := eng.ValidateUniform(r, p, W)
			if conErr == nil && unErr != nil {
				t.Fatalf("trial %d policy %v: constrained-valid but unconstrained-invalid (%v)\ntree %v placement %v",
					trial, p, unErr, tr, r)
			}
			if p == PolicyClosest {
				continue // forced routing: loads identical by definition
			}
			conRes := eng.EvalUniformConstrained(r, p, W, c)
			conServed := 0
			for _, l := range conRes.Loads {
				conServed += l
			}
			unRes := eng.EvalUniform(r, p, W)
			unServed := 0
			for _, l := range unRes.Loads {
				unServed += l
			}
			if conServed > unServed {
				t.Fatalf("trial %d policy %v: constraints increased served requests (%d > %d)",
					trial, p, conServed, unServed)
			}
		}
	}
}

// TestEvalConstrainedNilMatchesEval checks that nil, all-unbounded and
// loose constraints (every QoS bound at least the height + 1, every
// bandwidth at least the total demand) reproduce the plain evaluation's
// loads and Unserved under every policy.
func TestEvalConstrainedNilMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 300; trial++ {
		tr, _, r := randomPlacementTree(rng)
		W := 1 + rng.Intn(10)
		eng := NewEngine(tr)
		loose := NewConstraints(tr)
		loose.SetUniformQoS(tr, tr.Height()+1+rng.Intn(3))
		loose.SetUniformBandwidth(tr.TotalRequests() + rng.Intn(3))
		for _, p := range Policies() {
			plain := eng.EvalUniform(r, p, W)
			pu, pl := plain.Unserved, append([]int(nil), plain.Loads...)
			for _, in := range []struct {
				name string
				c    *Constraints
			}{{"nil", nil}, {"unbounded", NewConstraints(tr)}, {"loose", loose}} {
				name, res := in.name, eng.EvalUniformConstrained(r, p, W, in.c)
				if res.Unserved != pu {
					t.Fatalf("policy %v: %s constraints changed Unserved (%d != %d)", p, name, res.Unserved, pu)
				}
				for j := range pl {
					if res.Loads[j] != pl[j] {
						t.Fatalf("policy %v: %s constraints changed loads (%v != %v)", p, name, res.Loads, pl)
					}
				}
			}
		}
	}
}

func TestInstanceJSONRoundTrip(t *testing.T) {
	tr := qosChainTree(2, 5)
	c := NewConstraints(tr)
	c.SetQoS(2, 0, 3)
	c.SetBandwidth(1, 8)

	var buf bytes.Buffer
	if err := WriteInstanceJSON(&buf, tr, c); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"qos"`) || !strings.Contains(buf.String(), `"bandwidth"`) {
		t.Fatalf("instance JSON lacks constraint fields:\n%s", buf.String())
	}
	t2, c2, err := ReadInstanceJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if t2.N() != tr.N() {
		t.Fatalf("round-tripped tree has %d nodes, want %d", t2.N(), tr.N())
	}
	if c2 == nil || c2.QoS(2, 0) != 3 || c2.Bandwidth(1) != 8 {
		t.Fatalf("round-tripped constraints = %+v", c2)
	}

	// Instance files still decode as plain trees.
	t3, err := ReadTreeJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if t3.N() != tr.N() {
		t.Fatalf("plain decode has %d nodes, want %d", t3.N(), tr.N())
	}

	// A plain tree file reads as an unconstrained instance.
	buf.Reset()
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	_, c4, err := ReadInstanceJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if c4 != nil {
		t.Fatalf("plain tree decoded with constraints %+v", c4)
	}
}

// TestConstraintsReset pins the pooled-solver rebind: Reset must return
// the set to all-unbounded for the new tree, reusing storage, and count
// as a mutation for generation-tracking solvers.
func TestConstraintsReset(t *testing.T) {
	b := NewBuilder()
	n1 := b.AddNode(b.Root())
	b.AddClient(n1, 3)
	b.AddClient(b.Root(), 2)
	tr := b.MustBuild()

	c := NewConstraints(tr)
	c.SetUniformQoS(tr, 3)
	c.SetUniformBandwidth(7)
	gen := c.Generation()

	b2 := NewBuilder()
	n2 := b2.AddNode(b2.Root())
	b2.AddClient(n2, 5)
	tr2 := b2.MustBuild()
	c.Reset(tr2)
	if c.N() != tr2.N() {
		t.Fatalf("reset constraints cover %d nodes, tree has %d", c.N(), tr2.N())
	}
	if c.Bounded() {
		t.Fatal("reset constraints still bounded")
	}
	if q := c.QoS(n2, 0); q != 0 {
		t.Fatalf("reset QoS bound %d, want unbounded", q)
	}
	if bw := c.Bandwidth(n2); bw != NoBandwidthLimit {
		t.Fatalf("reset bandwidth %d, want unlimited", bw)
	}
	if c.Generation() == gen {
		t.Fatal("Reset did not advance the generation")
	}
	if err := c.Validate(tr2); err != nil {
		t.Fatalf("reset constraints invalid: %v", err)
	}
	// The reset set accepts fresh bounds for the new tree.
	c.SetUniformQoS(tr2, 2)
	if q := c.QoS(n2, 0); q != 2 {
		t.Fatalf("post-reset QoS bound %d, want 2", q)
	}
}
