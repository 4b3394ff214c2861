package tree

import (
	"testing"

	"replicatree/internal/rng"
)

// testMask is a plain FaultMask for the masked-evaluation tests.
type testMask struct {
	node []bool // true = down
	link []bool // true = cut
}

func newTestMask(n int) *testMask {
	return &testMask{node: make([]bool, n), link: make([]bool, n)}
}

func (m *testMask) NodeUp(j int) bool { return !m.node[j] }
func (m *testMask) LinkUp(j int) bool { return !m.link[j] }

// TestEvalMaskedAllUpMatchesEval pins the compatibility contract: under
// an all-up mask (or a nil one) the masked evaluators reproduce the
// plain evaluators' loads and unserved counts bit for bit.
func TestEvalMaskedAllUpMatchesEval(t *testing.T) {
	for _, policy := range Policies() {
		for seed := uint64(0); seed < 20; seed++ {
			src := rng.Derive(seed, int(policy))
			tr := MustGenerate(HighConfig(60), src)
			r, err := RandomReplicas(tr, 1+src.IntN(tr.N()), 1, src)
			if err != nil {
				t.Fatal(err)
			}
			e := NewEngine(tr)
			W := 5 + src.IntN(40)
			want := e.EvalUniform(r, policy, W)
			wantLoads := append([]int(nil), want.Loads...)
			for _, m := range []FaultMask{nil, newTestMask(tr.N())} {
				got := e.EvalUniformMasked(r, policy, W, m)
				if got.Unserved != want.Unserved || got.FailUnserved != 0 {
					t.Fatalf("policy %v seed %d: masked unserved (%d, fail %d), want (%d, 0)",
						policy, seed, got.Unserved, got.FailUnserved, want.Unserved)
				}
				for j, l := range got.Loads {
					if l != wantLoads[j] {
						t.Fatalf("policy %v seed %d: masked load[%d] = %d, want %d", policy, seed, j, l, wantLoads[j])
					}
				}
			}
		}
	}
}

// TestEvalMaskedConservation checks, under random masks, the law
// issued == sum(loads) + unserved + failure-unserved, the per-origin
// attribution (all or nothing per origin under the closest policy,
// whose routing binds a node's clients to one server), and (for the
// capacity-aware policies) that no live server exceeds its capacity and
// no down server carries load.
func TestEvalMaskedConservation(t *testing.T) {
	for _, policy := range Policies() {
		for seed := uint64(0); seed < 30; seed++ {
			src := rng.Derive(seed+100, int(policy))
			tr := MustGenerate(HighConfig(80), src)
			n := tr.N()
			r, err := RandomReplicas(tr, 1+src.IntN(n), 1, src)
			if err != nil {
				t.Fatal(err)
			}
			m := newTestMask(n)
			for j := 0; j < n; j++ {
				m.node[j] = src.Bool(0.2)
				if j > 0 {
					m.link[j] = src.Bool(0.1)
				}
			}
			W := 5 + src.IntN(40)
			e := NewEngine(tr)
			res := e.EvalUniformMasked(r, policy, W, m)

			issued := 0
			for j := 0; j < n; j++ {
				issued += tr.ClientSum(j)
			}
			if res.Issued != issued {
				t.Fatalf("policy %v seed %d: issued %d, want %d", policy, seed, res.Issued, issued)
			}
			sumLoads, sumAt := 0, 0
			for j := 0; j < n; j++ {
				l := res.Loads[j]
				sumLoads += l
				sumAt += res.UnservedAt[j]
				if l > 0 && (!r.Has(j) || m.node[j]) {
					t.Fatalf("policy %v seed %d: node %d carries %d while unequipped or down", policy, seed, j, l)
				}
				if policy != PolicyClosest && l > W {
					t.Fatalf("policy %v seed %d: node %d carries %d > W=%d", policy, seed, j, l, W)
				}
				if at := res.UnservedAt[j]; policy == PolicyClosest && at != 0 && at != tr.ClientSum(j) {
					t.Fatalf("policy %v seed %d: node %d lost %d of its %d requests", policy, seed, j, at, tr.ClientSum(j))
				}
			}
			if got := sumLoads + res.Unserved + res.FailUnserved; got != issued {
				t.Fatalf("policy %v seed %d: loads %d + unserved %d + fail %d = %d, want issued %d",
					policy, seed, sumLoads, res.Unserved, res.FailUnserved, got, issued)
			}
			if sumAt != res.FailUnserved {
				t.Fatalf("policy %v seed %d: UnservedAt sums to %d, FailUnserved %d", policy, seed, sumAt, res.FailUnserved)
			}
		}
	}
}

// TestEvalMaskedDegradation pins the per-policy contract on a concrete
// chain: root(0) - 1 - 2 with clients at 2, servers at 1 (and 0 under
// the relaxed-policy variants).
func TestEvalMaskedDegradation(t *testing.T) {
	b := NewBuilder()
	n1 := b.AddNode(b.Root())
	n2 := b.AddNode(n1)
	b.AddClient(n2, 4)
	tr := b.MustBuild()

	r := ReplicasOf(tr)
	r.Set(0, 1)
	r.Set(n1, 1)

	m := newTestMask(tr.N())
	m.node[n1] = true // the closest server is down
	e := NewEngine(tr)

	// Closest: forced to the down server at n1, the demand is lost.
	res := e.EvalUniformMasked(r, PolicyClosest, 10, m)
	if res.FailUnserved != 4 || res.UnservedAt[n2] != 4 || res.Loads[0] != 0 {
		t.Fatalf("closest: fail=%d at[n2]=%d root load=%d, want 4/4/0", res.FailUnserved, res.UnservedAt[n2], res.Loads[0])
	}

	// Upwards and Multiple: the demand climbs past n1 to the live root.
	for _, p := range []Policy{PolicyUpwards, PolicyMultiple} {
		res = e.EvalUniformMasked(r, p, 10, m)
		if res.FailUnserved != 0 || res.Loads[0] != 4 {
			t.Fatalf("%v: fail=%d root load=%d, want 0/4", p, res.FailUnserved, res.Loads[0])
		}
	}

	// A cut link below every server traps the demand under all policies.
	m2 := newTestMask(tr.N())
	m2.link[n2] = true
	for _, p := range Policies() {
		res = e.EvalUniformMasked(r, p, 10, m2)
		if res.FailUnserved != 4 || res.UnservedAt[n2] != 4 {
			t.Fatalf("%v cut link: fail=%d at[n2]=%d, want 4/4", p, res.FailUnserved, res.UnservedAt[n2])
		}
	}

	// A down access node loses its own clients even when it hosts the
	// server itself.
	r2 := ReplicasOf(tr)
	r2.Set(n2, 1)
	m3 := newTestMask(tr.N())
	m3.node[n2] = true
	for _, p := range Policies() {
		res = e.EvalUniformMasked(r2, p, 10, m3)
		if res.FailUnserved != 4 || res.Loads[n2] != 0 {
			t.Fatalf("%v down access node: fail=%d load=%d, want 4/0", p, res.FailUnserved, res.Loads[n2])
		}
	}
}
