package core

import "context"

// This file holds the cooperative-cancellation machinery shared by the
// three solvers. Each solver's driver (dp.go) owns a cancelGate
// installed via SetContext; the bottom-up passes poll it at coarse
// checkpoints — between height waves on the parallel path, every
// cancelStride node tables on the sequential one (every table for the
// power DP), and at the power root between merge fold steps and once
// per row of the root scan — so a cancellation is observed within one
// checkpoint's worth of work, never mid-table.
//
// Aborting between checkpoints leaves the solver repairable, the same
// contract as a mid-tree solve error: nothing is committed (neither the
// demand generations nor the previous-instance diff state), so the next
// solve recomputes a superset of the interrupted work and lands on
// tables byte-identical to a solve that was never interrupted. Node
// tables are only ever rebuilt whole, and a rebuilt table is an exact
// function of the node's inputs, so a partially refreshed tree mixes
// exact tables of two generations — harmless, because the uncommitted
// tracker re-dirties every node of the newer generation on the next
// solve.

// cancelStride is how many sequential node solves of MinCost and QoS
// run between two polls of the cancellation gate. Coarse enough that the poll is invisible
// next to a table rebuild, fine enough that cancellation latency stays
// bounded by a few dozen small tables.
const cancelStride = 64

// cancelGate caches a context's done channel so the per-checkpoint poll
// is one non-blocking select with no interface calls on the hot path.
// The zero value is an open gate (never cancelled, zero overhead).
type cancelGate struct {
	ctx  context.Context
	done <-chan struct{}
}

// set installs ctx as the gate's context. A nil ctx — or one that can
// never be cancelled, like context.Background() — disables the gate.
func (g *cancelGate) set(ctx context.Context) {
	if ctx == nil {
		g.ctx, g.done = nil, nil
		return
	}
	g.ctx, g.done = ctx, ctx.Done()
}

// err polls the gate: nil while the context is live, the context's
// error once it was cancelled.
func (g *cancelGate) err() error {
	if g.done == nil {
		return nil
	}
	select {
	case <-g.done:
		return g.ctx.Err()
	default:
		return nil
	}
}
