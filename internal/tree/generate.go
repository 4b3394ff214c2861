package tree

import (
	"fmt"

	"replicatree/internal/rng"
)

// GenConfig parameterises the random tree generator used throughout the
// paper's evaluation (Section 5): internal nodes are created breadth
// first, each drawing a number of internal children uniformly from
// [MinChildren, MaxChildren] until Nodes nodes exist; each internal node
// independently receives one client with probability ClientProb, issuing
// a request count uniform in [ReqMin, ReqMax].
type GenConfig struct {
	Nodes       int
	MinChildren int
	MaxChildren int
	ClientProb  float64
	ReqMin      int
	ReqMax      int
	// EnsureClient attaches one client to a random node when the
	// probabilistic attachment produced none, so generated instances
	// are never trivially empty.
	EnsureClient bool
}

// FatConfig is the paper's Experiment 1/2 workload: trees whose internal
// nodes have between 6 and 9 children ("fat" trees), one client per node
// with probability 0.5 issuing 1-6 requests.
func FatConfig(nodes int) GenConfig {
	return GenConfig{
		Nodes:        nodes,
		MinChildren:  6,
		MaxChildren:  9,
		ClientProb:   0.5,
		ReqMin:       1,
		ReqMax:       6,
		EnsureClient: true,
	}
}

// HighConfig is the paper's "high trees" variant (Figures 6, 7 and 10):
// internal nodes have between 2 and 4 children.
func HighConfig(nodes int) GenConfig {
	c := FatConfig(nodes)
	c.MinChildren = 2
	c.MaxChildren = 4
	return c
}

// PowerConfig is the paper's Experiment 3 workload: 50-node trees with
// clients issuing 1-5 requests, "so that a solution with replicas in the
// first mode (W1 = 5) can always be found".
func PowerConfig(nodes int) GenConfig {
	c := FatConfig(nodes)
	c.ReqMin, c.ReqMax = 1, 5
	return c
}

// ScalePreset is the mega-tree workload of the BenchmarkScale tier:
// fat trees (6-9 children per internal node, as in Experiment 1) but
// with sparse demand — each node receives one client with probability
// 0.1 issuing 1-6 requests — sized far beyond the paper's experiments
// (10^4-10^6 nodes) to exercise the CSR layout and the
// subtree-parallel DP. Generation is O(N) in time and memory.
func ScalePreset(nodes int) GenConfig {
	return GenConfig{
		Nodes:        nodes,
		MinChildren:  6,
		MaxChildren:  9,
		ClientProb:   0.1,
		ReqMin:       1,
		ReqMax:       6,
		EnsureClient: true,
	}
}

func (c GenConfig) validate() error {
	switch {
	case c.Nodes < 1:
		return fmt.Errorf("tree: GenConfig.Nodes = %d, need >= 1", c.Nodes)
	case c.MinChildren < 1 || c.MaxChildren < c.MinChildren:
		return fmt.Errorf("tree: GenConfig children range [%d,%d] invalid", c.MinChildren, c.MaxChildren)
	case c.ClientProb < 0 || c.ClientProb > 1:
		return fmt.Errorf("tree: GenConfig.ClientProb = %v out of [0,1]", c.ClientProb)
	case c.ReqMin < 0 || c.ReqMax < c.ReqMin:
		return fmt.Errorf("tree: GenConfig request range [%d,%d] invalid", c.ReqMin, c.ReqMax)
	}
	return nil
}

// Generate draws a random tree from cfg using src. The same (cfg, seed)
// pair always produces the same tree.
func Generate(cfg GenConfig, src *rng.Source) (*Tree, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	parent := make([]int, 1, cfg.Nodes)
	parent[0] = -1
	// Frontier of nodes that have not drawn their children yet,
	// consumed in creation order (breadth-first shape).
	for frontier := 0; frontier < len(parent) && len(parent) < cfg.Nodes; frontier++ {
		k := src.Between(cfg.MinChildren, cfg.MaxChildren)
		for i := 0; i < k && len(parent) < cfg.Nodes; i++ {
			parent = append(parent, frontier)
		}
	}
	// Clients are emitted directly in flat CSR form: at mega scale a
	// per-node [][]int would cost one small allocation per client.
	n := len(parent)
	clientStart := make([]int32, n+1)
	clientReqs := make([]int, 0, n/4)
	total := 0
	for j := 0; j < n; j++ {
		clientStart[j] = int32(len(clientReqs))
		if src.Bool(cfg.ClientProb) {
			r := src.Between(cfg.ReqMin, cfg.ReqMax)
			clientReqs = append(clientReqs, r)
			total += r
		}
	}
	clientStart[n] = int32(len(clientReqs))
	if cfg.EnsureClient && total == 0 {
		// Replace node j's (empty or all-zero) client list with the one
		// ensured client, splicing the flat arrays. Rare path: it only
		// triggers when the probabilistic attachment drew no demand.
		j := src.IntN(n)
		r := src.Between(max(cfg.ReqMin, 1), max(cfg.ReqMax, 1))
		lo, hi := clientStart[j], clientStart[j+1]
		tail := append([]int(nil), clientReqs[hi:]...)
		clientReqs = append(append(clientReqs[:lo], r), tail...)
		delta := int32(1) - (hi - lo)
		for k := j + 1; k <= n; k++ {
			clientStart[k] += delta
		}
	}
	rb := &rawBuilder{parent: parent, clientStart: clientStart, clientReqs: clientReqs}
	return rb.finish()
}

// MustGenerate is Generate for callers with a statically valid config.
func MustGenerate(cfg GenConfig, src *rng.Source) *Tree {
	t, err := Generate(cfg, src)
	if err != nil {
		panic(err)
	}
	return t
}

// RedrawRequests re-draws the request count of every existing client
// uniformly in [cfg.ReqMin, cfg.ReqMax], keeping the set of clients
// fixed. This is the per-step mutation of the paper's Experiment 2
// ("we update the number of requests per client"). Mutations go through
// SetDemand, so only nodes whose demand actually changed advance their
// generation and dirty the incremental solvers' caches.
func RedrawRequests(t *Tree, cfg GenConfig, src *rng.Source) {
	for j := 0; j < t.N(); j++ {
		for i := range t.Clients(j) {
			t.SetDemand(j, i, src.Between(cfg.ReqMin, cfg.ReqMax))
		}
	}
}

// DriftRequests re-draws each client's demand independently with
// probability prob (uniformly in [cfg.ReqMin, cfg.ReqMax]), returning
// the number of demands that actually changed. With prob = 1 it is
// RedrawRequests; smaller probabilities model the gentle per-step drift
// of the Section 6 update-interval study, where incremental re-solves
// touch only the dirty ancestor chains.
func DriftRequests(t *Tree, cfg GenConfig, prob float64, src *rng.Source) int {
	changed := 0
	for j := 0; j < t.N(); j++ {
		for i := range t.Clients(j) {
			if src.Bool(prob) && t.SetDemand(j, i, src.Between(cfg.ReqMin, cfg.ReqMax)) {
				changed++
			}
		}
	}
	return changed
}

// RandomReplicas equips count distinct random nodes, each at a mode drawn
// uniformly from [1, modes]. With modes == 1 this realises the paper's
// Experiment 1 pre-existing server placement; with modes == M it also
// draws the initial operating modes needed by Experiment 3. The paper
// does not specify those modes, so they are drawn uniformly, which
// favours no mode over another.
func RandomReplicas(t *Tree, count, modes int, src *rng.Source) (*Replicas, error) {
	if count < 0 || count > t.N() {
		return nil, fmt.Errorf("tree: RandomReplicas count %d out of [0,%d]", count, t.N())
	}
	if modes < 1 {
		return nil, fmt.Errorf("tree: RandomReplicas modes %d < 1", modes)
	}
	r := ReplicasOf(t)
	for _, j := range src.Sample(t.N(), count) {
		r.Set(j, uint8(1+src.IntN(modes)))
	}
	return r, nil
}
