package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"replicatree/internal/core"
	"replicatree/internal/cost"
	"replicatree/internal/power"
	"replicatree/internal/rng"
	"replicatree/internal/tree"
)

// maxReq bounds per-edit request counts exactly like the solvers bound
// the capacity W: values whose int32 DP encoding could wrap are
// rejected at the API edge.
const maxReq = math.MaxInt32 / 4

// Options configures one session. W and Cost drive the always-present
// MinCost solver; a non-nil Power model additionally retains a PowerDP
// (serving /front and the min-power placement); a QoSSolver is retained
// whenever the loaded instance carries constraints.
type Options struct {
	// W is the uniform server capacity of the MinCost (and QoS)
	// problems.
	W int
	// Cost prices the MinCost reconfiguration (Equation (2)); its
	// Create/Delete prices are reused, uniformly per mode, for the
	// power DP's modal cost.
	Cost cost.Simple
	// Power, when non-nil, enables the MinPower-BoundedCost solver.
	Power *power.Model
	// PowerChange is the uniform mode-change price of the modal cost
	// (only read with Power set).
	PowerChange float64
	// Chain, when true, feeds each tick's placement back as the next
	// tick's pre-existing set (the continuous replica placement mode);
	// false keeps the load-time pre-existing set for every tick.
	Chain bool
	// Workers selects the solvers' subtree-parallel DP worker count
	// (0 = all CPUs, 1 = sequential). Results are bit-identical for
	// every value.
	Workers int
	// Gen optionally retains the generator bounds of a gen-loaded
	// instance so redraw drifts can draw demands without explicit
	// bounds.
	Gen *tree.GenConfig
	// TickTimeout, when positive, bounds each tick's re-solve: a tick
	// that exceeds it aborts at the solvers' next cooperative
	// checkpoint and fails with context.DeadlineExceeded. The batch's
	// demand edits stay applied (they are the instance's current
	// state); the next tick re-solves them on top of whatever the
	// aborted solve left uncommitted, landing on the same placement an
	// uninterrupted solve would have produced.
	TickTimeout time.Duration
	// MaxInflight caps concurrently queued drift submissions (leader
	// plus followers plus arrivals): submissions past the cap are shed
	// with ErrOverloaded instead of growing the pending batch without
	// bound. 0 selects DefaultMaxInflight.
	MaxInflight int
}

// DefaultMaxInflight is the drift admission cap applied when
// Options.MaxInflight is zero.
const DefaultMaxInflight = 256

// Edit sets the absolute request count of one client: client index
// Client of node Node issues Reqs requests from this tick on.
type Edit struct {
	Node   int `json:"node"`
	Client int `json:"client"`
	Reqs   int `json:"reqs"`
}

// Redraw is the randomised drift form: every client's demand is
// redrawn with probability Prob, uniformly in [ReqMin, ReqMax], from
// the deterministic stream seeded by Seed. Zero ReqMin/ReqMax fall
// back to the session's generator bounds (gen-loaded instances only).
type Redraw struct {
	Prob   float64 `json:"prob"`
	Seed   uint64  `json:"seed"`
	ReqMin int     `json:"reqmin,omitempty"`
	ReqMax int     `json:"reqmax,omitempty"`
}

// TickStats bundles the per-solver SolveStats of one tick.
type TickStats struct {
	MinCost core.SolveStats  `json:"mincost"`
	Power   *core.SolveStats `json:"power,omitempty"`
	QoS     *core.SolveStats `json:"qos,omitempty"`
}

// PowerView is the power side of a snapshot: the min-power placement
// of the tick and the full cost/power Pareto front.
type PowerView struct {
	Modes   []int              `json:"modes"`
	Servers int                `json:"servers"`
	Cost    float64            `json:"cost"`
	Power   float64            `json:"power"`
	Front   []core.ParetoPoint `json:"front"`
}

// QoSView is the constrained-counting side of a snapshot.
type QoSView struct {
	Modes   []int `json:"modes"`
	Servers int   `json:"servers"`
}

// Snapshot is the immutable read model published after every
// successful tick. Readers obtain it lock-free; all fields are
// effectively frozen after publication.
type Snapshot struct {
	Tick    uint64     `json:"tick"`
	Modes   []int      `json:"modes"`
	Servers int        `json:"servers"`
	Reused  int        `json:"reused"`
	New     int        `json:"new"`
	Cost    float64    `json:"cost"`
	Power   *PowerView `json:"power,omitempty"`
	QoS     *QoSView   `json:"qos,omitempty"`
	Stats   TickStats  `json:"stats"`
	Changed int        `json:"changed"`
	TookNS  int64      `json:"took_ns"`
}

// TickResult is what one drift submission learns about the tick that
// incorporated its edits.
type TickResult struct {
	Tick     uint64    `json:"tick"`
	Requests int       `json:"requests"` // drift requests coalesced into this tick
	Changed  int       `json:"changed"`  // edits that changed a demand value
	Servers  int       `json:"servers"`
	Cost     float64   `json:"cost"`
	TookNS   int64     `json:"took_ns"`
	Stats    TickStats `json:"stats"`
}

// batch accumulates the drift submissions of one upcoming tick. Edits
// are appended under the batcher lock while the batch is pending; the
// leader freezes it by unpending it, and closes done when the tick has
// completed (b.snap/b.err are immutable from then on).
type batch struct {
	edits    []Edit
	redraws  []Redraw
	requests int
	done     chan struct{}
	snap     *Snapshot
	changed  int
	tick     uint64
	err      error
}

// Session is one loaded instance with its retained solvers. See the
// package documentation for the consistency model.
type Session struct {
	id   string
	opts Options
	t    *tree.Tree
	cons *tree.Constraints

	// Write side, guarded by run (tick leaders, evals, snapshots).
	run     sync.Mutex
	mc      *core.MinCostSolver
	pdp     *core.PowerDP
	qs      *core.QoSSolver
	eng     *tree.Engine
	modal   cost.Modal
	tick    uint64
	cur     *tree.Replicas // latest MinCost placement (one of the two buffers below)
	exist   *tree.Replicas // pre-existing set of the next tick
	scratch *tree.Replicas
	powerEx *tree.Replicas
	powerSc *tree.Replicas
	qosBuf  *tree.Replicas
	front   []core.ParetoPoint // FrontInto scratch

	// wal, when non-nil, journals every frozen batch durably before
	// the leader applies it (guarded by run). Attached by the server
	// when a data directory is configured.
	wal *wal

	// baseCtx is the session's lifetime context: Close cancels it,
	// aborting any in-flight solve at its next cooperative checkpoint.
	// Per-tick deadlines derive from it.
	baseCtx context.Context
	stop    context.CancelFunc
	closed  atomic.Bool

	// Batcher state, guarded by bmu (never held while solving).
	bmu     sync.Mutex
	pending *batch

	// inflight counts drift submissions between admission and
	// response; the admission cap sheds past Options.MaxInflight.
	inflight atomic.Int64

	snap    atomic.Pointer[Snapshot]
	lastErr atomic.Pointer[string]
	met     sessionMetrics
}

// NewSession builds a session over t (with optional constraints),
// validates the configuration and pre-existing sets, and runs the
// initial solve so the first snapshot is published at the given tick
// number (0 for fresh loads; restores pass the persisted counter).
func NewSession(id string, t *tree.Tree, cons *tree.Constraints, opts Options, existing, powerExisting *tree.Replicas, tick uint64) (*Session, error) {
	if opts.W <= 0 {
		return nil, fmt.Errorf("serve: non-positive capacity w=%d", opts.W)
	}
	if opts.W > maxReq {
		return nil, fmt.Errorf("serve: capacity w=%d too large", opts.W)
	}
	if err := opts.Cost.Validate(); err != nil {
		return nil, err
	}
	if opts.MaxInflight < 0 {
		return nil, fmt.Errorf("serve: negative drift admission cap %d", opts.MaxInflight)
	}
	n := t.N()
	s := &Session{id: id, opts: opts, t: t, cons: cons, tick: tick}
	s.baseCtx, s.stop = context.WithCancel(context.Background())
	s.exist = tree.NewReplicas(n)
	if existing != nil {
		if existing.N() != n {
			return nil, fmt.Errorf("serve: existing set covers %d nodes, tree has %d", existing.N(), n)
		}
		s.exist = existing.Clone()
	}
	s.scratch = tree.NewReplicas(n)
	s.mc = core.NewMinCostSolver(t)
	s.mc.SetWorkers(opts.Workers)
	if opts.Power != nil {
		if err := opts.Power.Validate(); err != nil {
			return nil, err
		}
		if opts.PowerChange < 0 {
			return nil, fmt.Errorf("serve: negative mode-change price %v", opts.PowerChange)
		}
		M := len(opts.Power.Caps)
		s.modal = cost.UniformModal(M, opts.Cost.Create, opts.Cost.Delete, opts.PowerChange)
		s.powerEx = tree.NewReplicas(n)
		if powerExisting != nil {
			if powerExisting.N() != n {
				return nil, fmt.Errorf("serve: power existing set covers %d nodes, tree has %d", powerExisting.N(), n)
			}
			for j := 0; j < n; j++ {
				if m := powerExisting.Mode(j); m != tree.NoMode && int(m) > M {
					return nil, fmt.Errorf("serve: power existing mode %d at node %d exceeds M=%d", m, j, M)
				}
			}
			s.powerEx = powerExisting.Clone()
		}
		s.powerSc = tree.NewReplicas(n)
		s.pdp = core.NewPowerDP(t)
		s.pdp.SetWorkers(opts.Workers)
	}
	if cons != nil {
		if err := cons.Validate(t); err != nil {
			return nil, err
		}
		s.qosBuf = tree.NewReplicas(n)
		s.qs = core.NewQoSSolver(t)
		s.qs.SetWorkers(opts.Workers)
	}
	s.eng = tree.NewEngine(t)

	s.run.Lock()
	defer s.run.Unlock()
	snap, err := s.solveLocked(0, tick, false)
	if err != nil {
		return nil, fmt.Errorf("serve: initial solve: %w", err)
	}
	s.publish(snap)
	return s, nil
}

// ID returns the session's instance id.
func (s *Session) ID() string { return s.id }

// Tree returns the session's tree. The caller must not mutate demands
// directly; all mutation goes through Drift.
func (s *Session) Tree() *tree.Tree { return s.t }

// Options returns the session's configuration.
func (s *Session) Options() Options { return s.opts }

// Constrained reports whether the instance carries QoS/bandwidth
// constraints (and therefore a retained QoSSolver).
func (s *Session) Constrained() bool { return s.qs != nil }

// hasSolver reports whether the solver slot si (solverMinCost...) is
// retained by this session; used by the metrics renderer.
func (s *Session) hasSolver(si int) bool {
	switch si {
	case solverMinCost:
		return true
	case solverPower:
		return s.pdp != nil
	case solverQoS:
		return s.qs != nil
	}
	return false
}

// Snapshot returns the latest published snapshot. It never blocks,
// whatever the solve loop is doing.
func (s *Session) Snapshot() *Snapshot { return s.snap.Load() }

// snapshot is the unexported alias the metrics renderer uses.
func (s *Session) snapshot() *Snapshot { return s.snap.Load() }

// LastErr returns the error string of the most recent failed tick, or
// "" after a successful one.
func (s *Session) LastErr() string {
	if p := s.lastErr.Load(); p != nil {
		return *p
	}
	return ""
}

// validateEdits checks every edit against the immutable tree
// dimensions without taking any lock: node and client indices must be
// in range and the value non-negative and bounded. Demand values are
// deliberately not read here (they mutate concurrently).
func (s *Session) validateEdits(edits []Edit) error {
	n := s.t.N()
	for i, e := range edits {
		if e.Node < 0 || e.Node >= n {
			return fmt.Errorf("serve: edit %d: node %d out of range [0,%d)", i, e.Node, n)
		}
		if c := len(s.t.Clients(e.Node)); e.Client < 0 || e.Client >= c {
			return fmt.Errorf("serve: edit %d: node %d has %d clients, got index %d", i, e.Node, c, e.Client)
		}
		if e.Reqs < 0 || e.Reqs > maxReq {
			return fmt.Errorf("serve: edit %d: request count %d out of [0,%d]", i, e.Reqs, maxReq)
		}
	}
	return nil
}

// validateRedraws resolves and checks the redraw bounds.
func (s *Session) validateRedraws(redraws []Redraw) ([]Redraw, error) {
	out := make([]Redraw, 0, len(redraws))
	for i, r := range redraws {
		if r.Prob < 0 || r.Prob > 1 || math.IsNaN(r.Prob) {
			return nil, fmt.Errorf("serve: redraw %d: probability %v out of [0,1]", i, r.Prob)
		}
		if r.ReqMin == 0 && r.ReqMax == 0 {
			if s.opts.Gen == nil {
				return nil, fmt.Errorf("serve: redraw %d: no request bounds and the instance was not generator-loaded; set reqmin/reqmax", i)
			}
			r.ReqMin, r.ReqMax = s.opts.Gen.ReqMin, s.opts.Gen.ReqMax
		}
		if r.ReqMin < 0 || r.ReqMax < r.ReqMin || r.ReqMax > maxReq {
			return nil, fmt.Errorf("serve: redraw %d: bounds [%d,%d] invalid", i, r.ReqMin, r.ReqMax)
		}
		out = append(out, r)
	}
	return out, nil
}

// ErrBadDrift wraps every drift-validation rejection, so transports
// can map it to a client error (HTTP 400) rather than a server one.
var ErrBadDrift = errors.New("invalid drift")

// ErrClosed reports an operation against a session that Close has torn
// down (HTTP 410): the instance was deleted, possibly aborting the
// very tick the request was waiting on.
var ErrClosed = errors.New("serve: instance closed")

// ErrOverloaded reports a drift submission shed by admission control
// (HTTP 429 with Retry-After): the instance already has MaxInflight
// submissions queued behind its solver.
var ErrOverloaded = errors.New("serve: instance overloaded")

// maxInflight resolves the session's drift admission cap.
func (s *Session) maxInflight() int64 {
	if s.opts.MaxInflight > 0 {
		return int64(s.opts.MaxInflight)
	}
	return DefaultMaxInflight
}

// QueueDepth reports how many drift submissions are currently queued
// or solving (the admission-control gauge).
func (s *Session) QueueDepth() int64 { return s.inflight.Load() }

// Drift submits a batch of demand edits and blocks until the tick that
// incorporated them completes, returning that tick's result. Edits are
// validated before they join the shared batch: an invalid submission
// returns ErrBadDrift-wrapped without mutating anything and without
// affecting concurrently submitted batches. Concurrent Drift calls
// coalesce: all submissions that arrive while a tick is solving are
// applied together by the next tick's single incremental re-solve.
func (s *Session) Drift(edits []Edit, redraws []Redraw) (*TickResult, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	if err := s.validateEdits(edits); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadDrift, err)
	}
	redraws, err := s.validateRedraws(redraws)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadDrift, err)
	}

	// Admission: a submission past the in-flight cap is shed before it
	// can join (and grow) the pending batch, bounding both queue memory
	// and the latency of every admitted request behind the solver.
	depth := s.inflight.Add(1)
	defer s.inflight.Add(-1)
	if cap := s.maxInflight(); depth > cap {
		s.met.shed.Add(1)
		return nil, fmt.Errorf("%w: %d drift submissions in flight (cap %d)", ErrOverloaded, depth, cap)
	}

	s.bmu.Lock()
	b := s.pending
	leader := b == nil
	if leader {
		b = &batch{done: make(chan struct{})}
		s.pending = b
	}
	b.edits = append(b.edits, edits...)
	b.redraws = append(b.redraws, redraws...)
	b.requests++
	s.bmu.Unlock()

	if leader {
		s.runTick(b)
	} else {
		<-b.done
	}
	res := &TickResult{Tick: b.tick, Requests: b.requests, Changed: b.changed}
	if b.err != nil {
		return res, b.err
	}
	res.Servers = b.snap.Servers
	res.Cost = b.snap.Cost
	res.TookNS = b.snap.TookNS
	res.Stats = b.snap.Stats
	return res, nil
}

// runTick executes one tick for batch b: freeze the batch, apply its
// edits, re-solve incrementally, publish. Always closes b.done.
func (s *Session) runTick(b *batch) {
	s.run.Lock()
	defer s.run.Unlock()
	defer close(b.done)
	// A panic below still unlocks and closes via the defers above; make
	// sure waiting followers then see an error instead of a nil snap.
	// (Registered last, so it runs before close.)
	defer func() {
		if b.err == nil && b.snap == nil {
			b.err = errors.New("serve: tick aborted")
		}
	}()

	// Freeze: from here arrivals open a new batch (its leader is
	// already queued behind us on the run lock).
	s.bmu.Lock()
	s.pending = nil
	s.bmu.Unlock()

	if s.closed.Load() {
		b.err = ErrClosed
		return
	}

	start := time.Now()

	// Journal the frozen batch before any demand mutation: once the
	// fsync returns, a crash at ANY later point replays this tick from
	// the log. On journal failure the tick fails without applying
	// anything — an unjournaled mutation would be lost by a crash.
	if s.wal != nil {
		walStart := time.Now()
		n, err := s.wal.append(&walRecord{Tick: s.tick + 1, Edits: b.edits, Redraws: b.redraws})
		if err != nil {
			s.met.walFailures.Add(1)
			msg := err.Error()
			s.lastErr.Store(&msg)
			b.err = err
			return
		}
		s.met.walFsyncSeconds.observe(time.Since(walStart))
		s.met.walRecords.Add(1)
		s.met.walBytes.Add(uint64(n))
	}

	changed := 0
	for _, e := range b.edits {
		if s.t.SetDemand(e.Node, e.Client, e.Reqs) {
			changed++
		}
	}
	for _, r := range b.redraws {
		cfg := tree.GenConfig{ReqMin: r.ReqMin, ReqMax: r.ReqMax}
		changed += tree.DriftRequests(s.t, cfg, r.Prob, rng.New(r.Seed))
	}
	b.changed = changed

	s.tick++
	b.tick = s.tick
	snap, err := s.solveLocked(changed, b.tick, true)
	took := time.Since(start)

	s.met.ticks.Add(1)
	s.met.driftRequests.Add(uint64(b.requests))
	s.met.driftEdits.Add(uint64(len(b.edits)))
	s.met.driftChanged.Add(uint64(changed))
	s.met.tickSeconds.observe(took)
	if err != nil {
		s.met.tickFailures.Add(1)
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			s.met.tickAborts.Add(1)
		}
		if s.closed.Load() && errors.Is(err, context.Canceled) {
			// The solve was aborted by Close (instance deleted), not by
			// a deadline; tell the waiters the instance is gone.
			err = fmt.Errorf("%w: %w", ErrClosed, err)
		}
		msg := err.Error()
		s.lastErr.Store(&msg)
		b.err = err
		return
	}
	s.lastErr.Store(nil)
	snap.TookNS = took.Nanoseconds()
	s.publish(snap)
	b.snap = snap
}

// solveLocked runs every retained solver once (incrementally) and
// builds the resulting snapshot. Caller holds the run lock. On error
// the session's buffers are unchanged except for solver-internal
// state, which the solvers themselves keep retry-safe (their trackers
// commit before every error path; see internal/core).
//
// deadline arms Options.TickTimeout: drift ticks opt in, the initial
// load solve does not (the deadline protects the tick loop from
// overrunning batches; construction is a synchronous one-off the
// client waits on, and journal replay already runs without it).
func (s *Session) solveLocked(changed int, tick uint64, deadline bool) (*Snapshot, error) {
	ctx, cancel := s.baseCtx, func() {}
	if deadline && s.opts.TickTimeout > 0 {
		ctx, cancel = context.WithTimeout(s.baseCtx, s.opts.TickTimeout)
	}
	defer cancel()
	s.mc.SetContext(ctx)
	if s.pdp != nil {
		s.pdp.SetContext(ctx)
	}
	if s.qs != nil {
		s.qs.SetContext(ctx)
	}

	res, err := s.mc.SolveInto(s.exist, s.opts.W, s.opts.Cost, s.scratch)
	if err != nil {
		return nil, fmt.Errorf("mincost: %w", err)
	}
	st := TickStats{MinCost: s.mc.Stats()}
	s.cur = s.scratch
	if s.opts.Chain {
		// The new placement becomes the next tick's pre-existing set;
		// the old set's buffer becomes the next scratch.
		s.exist, s.scratch = s.scratch, s.exist
	}

	snap := &Snapshot{
		Tick:    tick,
		Modes:   modesOf(s.cur),
		Servers: res.Servers,
		Reused:  res.Reused,
		New:     res.New,
		Cost:    res.Cost,
		Changed: changed,
	}

	if s.pdp != nil {
		ps, err := s.pdp.Solve(core.PowerProblem{
			Existing: s.powerEx,
			Power:    *s.opts.Power,
			Cost:     s.modal,
		})
		if err != nil {
			return nil, fmt.Errorf("power: %w", err)
		}
		pres, ok := ps.BestInto(math.Inf(1), s.powerSc)
		if !ok {
			return nil, fmt.Errorf("power: %w", core.ErrInfeasible)
		}
		s.front = ps.FrontInto(s.front[:0])
		pst := s.pdp.Stats()
		st.Power = &pst
		pv := &PowerView{
			Modes:   modesOf(s.powerSc),
			Servers: s.powerSc.Count(),
			Cost:    pres.Cost,
			Power:   pres.Power,
			Front:   append([]core.ParetoPoint(nil), s.front...),
		}
		snap.Power = pv
		if s.opts.Chain {
			s.powerEx, s.powerSc = s.powerSc, s.powerEx
		}
	}

	if s.qs != nil {
		qres, err := s.qs.Solve(s.opts.W, s.cons, s.qosBuf)
		if err != nil {
			return nil, fmt.Errorf("qos: %w", err)
		}
		qst := s.qs.Stats()
		st.QoS = &qst
		snap.QoS = &QoSView{Modes: modesOf(qres), Servers: qres.Count()}
	}

	snap.Stats = st
	return snap, nil
}

// Close tears the session down: it cancels the lifetime context —
// aborting any in-flight solve at its next cooperative checkpoint —
// waits for the tick leader to drain, closes the journal and releases
// the solvers' worker pools. Drift and Eval fail with ErrClosed from
// the moment Close starts; a tick aborted by Close reports ErrClosed
// to every waiter of its batch. Close is idempotent and safe to call
// concurrently with any session operation.
func (s *Session) Close() {
	if s.closed.Swap(true) {
		return
	}
	s.stop()
	s.run.Lock()
	defer s.run.Unlock()
	if s.wal != nil {
		s.wal.Close()
		s.wal = nil
	}
	// SetWorkers(1) tears down the wave pools' goroutines; a fresh nil
	// context detaches the solvers
	// from the cancelled lifetime context.
	s.mc.SetWorkers(1)
	s.mc.SetContext(nil)
	if s.pdp != nil {
		s.pdp.SetWorkers(1)
		s.pdp.SetContext(nil)
	}
	if s.qs != nil {
		s.qs.SetWorkers(1)
		s.qs.SetContext(nil)
	}
}

// attachWAL installs an open journal as the session's write-ahead log;
// every subsequent tick journals its batch before applying it.
func (s *Session) attachWAL(w *wal) {
	s.run.Lock()
	s.wal = w
	s.run.Unlock()
}

// publish installs snap as the session's read model and folds its
// stats into the cumulative metrics.
func (s *Session) publish(snap *Snapshot) {
	s.met.recomputed[solverMinCost].Add(uint64(snap.Stats.MinCost.Recomputed))
	s.met.mergeCells.Add(uint64(snap.Stats.MinCost.MergeCellsScanned))
	s.met.foldReplayed.Add(uint64(snap.Stats.MinCost.FoldSuffixReplayed))
	s.met.maskedNodes.Add(uint64(snap.Stats.MinCost.MaskedNodes))
	if p := snap.Stats.Power; p != nil {
		s.met.recomputed[solverPower].Add(uint64(p.Recomputed))
		s.met.rootRepriced.Add(uint64(p.RootCellsRepriced))
		s.met.mergeCells.Add(uint64(p.MergeCellsScanned))
		s.met.foldReplayed.Add(uint64(p.FoldSuffixReplayed))
	}
	if q := snap.Stats.QoS; q != nil {
		s.met.recomputed[solverQoS].Add(uint64(q.Recomputed))
		s.met.mergeCells.Add(uint64(q.MergeCellsScanned))
		s.met.foldReplayed.Add(uint64(q.FoldSuffixReplayed))
	}
	s.snap.Store(snap)
}

// modesOf copies a replica set's per-node modes into a fresh []int
// (JSON-friendly; uint8 slices would serialise as base64).
func modesOf(r *tree.Replicas) []int {
	out := make([]int, r.N())
	for j := range out {
		out[j] = int(r.Mode(j))
	}
	return out
}

// EvalResult aggregates one masked flow evaluation of the current
// placement (GET /eval). Per-node arrays are omitted deliberately:
// at mega-tree scale they dwarf every other response.
type EvalResult struct {
	Tick         uint64 `json:"tick"`
	Policy       string `json:"policy"`
	Issued       int    `json:"issued"`
	Served       int    `json:"served"`
	Unserved     int    `json:"unserved"`
	FailUnserved int    `json:"fail_unserved"`
	MaxLoad      int    `json:"max_load"`
	Servers      int    `json:"servers"`
	DownNodes    int    `json:"down_nodes"`
	CutLinks     int    `json:"cut_links"`
}

// evalMask is the throwaway FaultMask built from an eval request.
type evalMask struct{ node, link []bool }

func (m *evalMask) NodeUp(j int) bool { return !m.node[j] }
func (m *evalMask) LinkUp(j int) bool { return !m.link[j] }

// Eval evaluates the current placement's request flows under the given
// policy with the given nodes down and links cut. It serialises with
// ticks on the run lock (it must read a consistent demand vector), so
// it can block behind a solve; placement reads that don't need flows
// should use Snapshot instead.
func (s *Session) Eval(policy tree.Policy, down, cuts []int) (*EvalResult, error) {
	n := s.t.N()
	for _, j := range down {
		if j < 0 || j >= n {
			return nil, fmt.Errorf("%w: down node %d out of range [0,%d)", ErrBadDrift, j, n)
		}
	}
	for _, j := range cuts {
		if j <= 0 || j >= n {
			return nil, fmt.Errorf("%w: cut link %d out of range [1,%d)", ErrBadDrift, j, n)
		}
	}
	var mask tree.FaultMask
	if len(down) > 0 || len(cuts) > 0 {
		m := &evalMask{node: make([]bool, n), link: make([]bool, n)}
		for _, j := range down {
			m.node[j] = true
		}
		for _, j := range cuts {
			m.link[j] = true
		}
		mask = m
	}

	s.run.Lock()
	defer s.run.Unlock()
	if s.closed.Load() {
		return nil, ErrClosed
	}
	s.met.evals.Add(1)
	r := s.eng.EvalUniformMasked(s.cur, policy, s.opts.W, mask)
	maxLoad := 0
	served := 0
	for _, l := range r.Loads {
		served += l
		if l > maxLoad {
			maxLoad = l
		}
	}
	return &EvalResult{
		Tick:         s.tick,
		Policy:       policy.String(),
		Issued:       r.Issued,
		Served:       served,
		Unserved:     r.Unserved,
		FailUnserved: r.FailUnserved,
		MaxLoad:      maxLoad,
		Servers:      s.cur.Count(),
		DownNodes:    len(down),
		CutLinks:     len(cuts),
	}, nil
}
