package core

import (
	"fmt"

	"replicatree/internal/cost"
	"replicatree/internal/tree"
)

// invalid marks the infeasible cells of a dense table.
const invalid = int32(-1)

// MinCostNoPre solves the classical replica placement problem (minimal
// number of servers, no pre-existing replicas) with the O(N²) dynamic
// program of Cidon, Kutten and Soffer [6], which the paper cites as the
// historical baseline. The table of node j maps the number of servers
// placed strictly inside subtree_j to the minimal number of requests
// that traverse j.
//
// The WithPre program in this package subsumes it (with E = ∅), and the
// greedy in package greedy matches its count in O(N log N); this
// independent implementation exists as a third oracle for
// cross-validation and as the paper's point of comparison.
func MinCostNoPre(t *tree.Tree, W int) (*MinCostResult, error) {
	if W <= 0 {
		return nil, fmt.Errorf("core: non-positive capacity %d", W)
	}
	if m := t.MaxClientSum(); m > W {
		return nil, fmt.Errorf("core: a node's clients demand %d > W=%d: %w", m, W, ErrInfeasible)
	}
	w := int32(W)
	n := t.N()

	type dec struct {
		kPrev int32
		place bool
	}
	type step struct {
		decs []dec
	}
	vals := make([][]int32, n) // minr per server count, per node
	steps := make([][]step, n) // one decision table per merged child

	for _, j := range t.PostOrder() {
		acc := []int32{int32(t.ClientSum(j))}
		for _, ch := range t.Children(j) {
			chVals := vals[ch]
			out := make([]int32, len(acc)+len(chVals))
			decs := make([]dec, len(out))
			for i := range out {
				out[i] = invalid
			}
			update := func(k, v int32, d dec) {
				if out[k] == invalid || v < out[k] {
					out[k] = v
					decs[k] = d
				}
			}
			for k := int32(0); k < int32(len(acc)); k++ {
				a := acc[k]
				if a == invalid {
					continue
				}
				for kc := int32(0); kc < int32(len(chVals)); kc++ {
					cv := chVals[kc]
					if cv == invalid {
						continue
					}
					if a+cv <= w {
						update(k+kc, a+cv, dec{kPrev: k})
					}
					update(k+kc+1, a, dec{kPrev: k, place: true})
				}
			}
			acc = out
			steps[j] = append(steps[j], step{decs: decs})
			vals[ch] = nil
		}
		vals[j] = acc
	}

	// Root scan: the smallest k with zero traversing requests, or k+1
	// with a server on the root.
	root := t.Root()
	bestK, bestServers := int32(-1), -1
	placeRoot := false
	for k := int32(0); k < int32(len(vals[root])); k++ {
		v := vals[root][k]
		if v == invalid {
			continue
		}
		if v == 0 && (bestServers < 0 || int(k) < bestServers) {
			bestK, bestServers, placeRoot = k, int(k), false
		}
		if v <= w && (bestServers < 0 || int(k)+1 < bestServers) {
			bestK, bestServers, placeRoot = k, int(k)+1, true
		}
	}
	if bestServers < 0 {
		return nil, fmt.Errorf("core: %w", ErrInfeasible)
	}

	placement := tree.NewReplicas(n)
	if placeRoot {
		placement.Set(root, 1)
	}
	var rebuild func(j int, k int32)
	rebuild = func(j int, k int32) {
		ss := steps[j]
		kids := t.Children(j)
		for s := len(ss) - 1; s >= 0; s-- {
			d := ss[s].decs[k]
			ch := kids[s]
			kc := k - d.kPrev
			if d.place {
				placement.Set(ch, 1)
				kc--
			}
			rebuild(ch, kc)
			k = d.kPrev
		}
		if k != 0 {
			panic(fmt.Sprintf("core: NoPre reconstruction reached invalid base %d at node %d", k, j))
		}
	}
	rebuild(root, bestK)

	return &MinCostResult{
		Placement: placement,
		Cost:      (cost.Simple{}).Of(bestServers, 0, 0),
		Servers:   bestServers,
		Reused:    0,
		New:       bestServers,
	}, nil
}
