package tree

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"replicatree/internal/rng"
)

// flowGoldenHash is the FNV-64a digest of every result TestFlowGolden
// computes. A change to it means some flow evaluation or validation now
// answers differently: a load, an unserved count, a per-origin loss
// attribution or the first violation reported.
const flowGoldenHash = 0x1ef48794d13dd32c

// goldenTree draws one corpus tree: a paper fat or high tree, or a
// builder tree whose nodes carry zero to three clients, zero demands
// included, so that ties between equal demands of distinct origins
// occur.
func goldenTree(src *rng.Source, kind int) *Tree {
	n := 2 + src.IntN(70)
	switch kind {
	case 0:
		return MustGenerate(FatConfig(n), src)
	case 1:
		return MustGenerate(HighConfig(n), src)
	}
	b := NewBuilder()
	for j := 1; j < n; j++ {
		b.AddNode(src.IntN(j))
	}
	for j := 0; j < n; j++ {
		for k := src.IntN(4); k > 0; k-- {
			b.AddClient(j, src.IntN(7))
		}
	}
	return b.MustBuild()
}

// goldenConstraints draws unbounded, loose (every QoS at least the
// height + 1, every bandwidth at least the total demand) or random
// constraints.
func goldenConstraints(src *rng.Source, tr *Tree, kind int) *Constraints {
	c := NewConstraints(tr)
	switch kind {
	case 0:
		return c
	case 1:
		c.SetUniformQoS(tr, tr.Height()+1+src.IntN(3))
		c.SetUniformBandwidth(tr.TotalRequests() + src.IntN(3))
		return c
	}
	for j := 0; j < tr.N(); j++ {
		for k := range tr.Clients(j) {
			if src.Bool(0.4) {
				c.SetQoS(j, k, 1+src.IntN(tr.Height()+2))
			}
		}
		if j > 0 && src.Bool(0.3) {
			c.SetBandwidth(j, src.IntN(12))
		}
	}
	return c
}

// TestFlowGolden pins the exact output of every flow evaluation and
// validation entry point over a seeded corpus of trees, placements,
// per-mode capacities, constraints and fault masks: loads, unserved
// counts, issued and failure-lost demand, the per-origin loss
// attribution, the closest routing and the text of the first violation
// reported. Any refactor of the flow engine must leave the digest
// unchanged.
func TestFlowGolden(t *testing.T) {
	h := fnv.New64a()
	var buf []byte
	put := func(vs ...int) {
		buf = buf[:0]
		for _, v := range vs {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
		h.Write(buf)
	}
	putErr := func(err error) {
		if err == nil {
			h.Write([]byte{0})
			return
		}
		h.Write([]byte(err.Error()))
	}
	e := NewEngine(MustGenerate(FatConfig(2), rng.New(0)))
	for seed := 0; seed < 900; seed++ {
		src := rng.Derive(15, seed)
		tr := goldenTree(src, seed%3)
		n := tr.N()
		e.Reset(tr)
		r, err := RandomReplicas(tr, src.IntN(n+1), 3, src)
		if err != nil {
			t.Fatal(err)
		}
		if src.Bool(0.7) {
			r.Set(tr.Root(), 3)
		}
		caps := [4]int{0, src.IntN(30), src.IntN(30), src.IntN(30)}
		capOf := func(m uint8) int { return caps[m] }
		c := goldenConstraints(src, tr, seed%4)
		m := newTestMask(n)
		pDown, pCut := 0.3*src.Float64(), 0.3*src.Float64()
		for j := 0; j < n; j++ {
			m.node[j] = src.Bool(pDown)
			m.link[j] = j > 0 && src.Bool(pCut)
		}
		for _, p := range Policies() {
			res := e.Eval(r, p, capOf)
			put(int(p), res.Unserved)
			put(res.Loads...)
			res = e.EvalConstrained(r, p, capOf, c)
			put(res.Unserved)
			put(res.Loads...)
			mr := e.EvalMasked(r, p, capOf, m)
			put(mr.Unserved, mr.Issued, mr.FailUnserved)
			put(mr.Loads...)
			put(mr.UnservedAt...)
			putErr(e.Validate(r, p, capOf))
			putErr(e.ValidateConstrained(r, p, capOf, c))
		}
		up, depth := e.ClosestRouting(r)
		put(up...)
		put(depth...)
		put(Assignments(tr, r)...)
	}
	if got := h.Sum64(); got != flowGoldenHash {
		t.Fatalf("flow golden digest %#x, want %#x", got, uint64(flowGoldenHash))
	}
}
