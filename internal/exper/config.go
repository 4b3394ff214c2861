// Package exper regenerates the paper's evaluation (Section 5): the
// pre-existing-server experiments behind Figures 4-7, the
// power-versus-cost experiments behind Figures 8-11, and the in-text
// scalability measurements. Each runner draws its workload exactly as
// described in the paper, executes the optimal dynamic programs of the
// core package against the greedy baseline, and aggregates the same
// quantities the figures plot. Runs are parallel across trees and
// deterministic for a fixed seed.
package exper

import (
	"math"

	"replicatree/internal/cost"
	"replicatree/internal/power"
	"replicatree/internal/tree"
)

// Paper-wide default parameters (Section 5).
const (
	// DefaultW is the uniform server capacity of Experiments 1 and 2.
	DefaultW = 10
	// DefaultSeed makes default runs reproducible.
	DefaultSeed = 2011 // IPPS 2011
)

// Exp1Cost is the cost model used for the update experiments. The paper
// fixes only create + 2·delete < 1 (priority to few servers); the exact
// prices are not stated. These values keep cost order lexicographic in
// (server count, reuse) for every tree size used here, matching the
// paper's observation that both algorithms always return the minimal
// number of replicas.
func Exp1Cost() cost.Simple { return cost.Simple{Create: 0.01, Delete: 0.001} }

// Exp3Power is the paper's Experiment 3 power model: two modes W1=5 and
// W2=10 with P_i = W1³/10 + W_i³ (static power 12.5, α = 3).
func Exp3Power() power.Model {
	return power.MustNew([]int{5, 10}, math.Pow(5, 3)/10, 3)
}

// Exp3Cost is the paper's first Experiment 3 cost function:
// createᵢ = 0.1, deleteᵢ = 0.01, changedᵢᵢ' = 0.001.
func Exp3Cost() cost.Modal { return cost.UniformModal(2, 0.1, 0.01, 0.001) }

// Fig11Cost is the paper's "different cost" variant (Figure 11):
// createᵢ = deleteᵢ = 1 and changedᵢᵢ' = 0.1.
func Fig11Cost() cost.Modal { return cost.UniformModal(2, 1, 1, 0.1) }

// HighPowerConfig is the Experiment 3 workload on the paper's high
// trees (2-4 children), used by Figure 10.
func HighPowerConfig(nodes int) tree.GenConfig {
	c := tree.HighConfig(nodes)
	c.ReqMin, c.ReqMax = 1, 5
	return c
}

// seqFloats returns lo, lo+step, …, up to and including hi.
func seqFloats(lo, hi, step float64) []float64 {
	var out []float64
	for v := lo; v <= hi+1e-9; v += step {
		out = append(out, v)
	}
	return out
}

// seqInts returns lo, lo+step, …, up to and including hi.
func seqInts(lo, hi, step int) []int {
	var out []int
	for v := lo; v <= hi; v += step {
		out = append(out, v)
	}
	return out
}
