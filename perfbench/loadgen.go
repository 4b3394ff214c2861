package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"replicatree/internal/rng"
	"replicatree/internal/serve"
	"replicatree/internal/tree"
)

type opKind uint8

const (
	opDrift opKind = iota
	opPlacement
	opEval
	numKinds
)

var kindNames = [numKinds]string{"drift", "placement", "eval"}

// editsPerDrift is the size of every drift request.
const editsPerDrift = 8

// op is one generated request. Its content depends only on the seed and
// its index, never on timing. done closes when the request has
// completed; deps are the done channels of earlier drifts that edit one
// of the same clients, which must complete before this one is sent.
type op struct {
	idx   int
	kind  opKind
	edits []serve.Edit
	down  []int
	deps  []chan struct{}
	done  chan struct{}
}

// opGen draws the request stream of a serving workload. Drift targets
// are real client slots taken round-robin from a seeded permutation, so
// no drift is rejected for a clientless node, and every slot's last
// writer is tracked so that two requests editing the same client never
// run concurrently: the final demands are then those of applying the
// successful drifts in index order, however the daemon batches them.
type opGen struct {
	mu       sync.Mutex
	src      *rng.Source
	mix      [numKinds]float64
	slots    []serve.Edit // Node, Client of every client slot, permuted
	lastDone []chan struct{}
	pos      int
	n        int // nodes, for eval fault draws
	reqMin   int
	reqMax   int
	count    int // requests drawn so far
}

func newOpGen(t *tree.Tree, cfg tree.GenConfig, seed uint64, mix [numKinds]float64) *opGen {
	g := &opGen{src: rng.Derive(seed, 1), mix: mix, n: t.N(), reqMin: cfg.ReqMin, reqMax: cfg.ReqMax}
	for j := 0; j < t.N(); j++ {
		for k := range t.Clients(j) {
			g.slots = append(g.slots, serve.Edit{Node: j, Client: k})
		}
	}
	perm := rng.Derive(seed, 2).Perm(len(g.slots))
	shuffled := make([]serve.Edit, len(g.slots))
	for i, p := range perm {
		shuffled[i] = g.slots[p]
	}
	g.slots = shuffled
	g.lastDone = make([]chan struct{}, len(g.slots))
	return g
}

// next draws the next request; force, when not numKinds, fixes its
// kind.
func (g *opGen) next(force opKind) *op {
	g.mu.Lock()
	defer g.mu.Unlock()
	o := &op{idx: g.count, done: make(chan struct{})}
	g.count++
	x := g.src.Float64()
	for o.kind = 0; o.kind < numKinds-1 && x >= g.mix[o.kind]; o.kind++ {
		x -= g.mix[o.kind]
	}
	if force != numKinds {
		o.kind = force
	}
	switch o.kind {
	case opDrift:
		for e := 0; e < editsPerDrift; e++ {
			s := g.pos % len(g.slots)
			g.pos++
			ed := g.slots[s]
			ed.Reqs = g.src.Between(g.reqMin, g.reqMax)
			o.edits = append(o.edits, ed)
			if d := g.lastDone[s]; d != nil && d != o.done {
				o.deps = append(o.deps, d)
			}
			g.lastDone[s] = o.done
		}
	case opEval:
		// Half the evaluations run with three nodes down, half with
		// everything up (where the check also demands unserved == 0).
		if g.src.Bool(0.5) {
			o.down = g.src.Sample(g.n, 3)
		}
	}
	return o
}

// sample is what the generator observed for one request. Times are
// offsets from the phase start; due == sent in a closed loop.
type sample struct {
	op    *op
	due   time.Duration
	sent  time.Duration
	acked time.Duration
	code  int
	err   error // transport error or non-2xx status
	bad   error // a 2xx response that failed its output check
	tick  serve.TickResult
}

func (s *sample) ok() bool { return s.err == nil && s.code/100 == 2 }

// latency is the time from when the request was due to its response.
func (s *sample) latency() time.Duration { return s.acked - s.due }

// late is how far behind schedule the generator sent the request.
func (s *sample) late() time.Duration { return s.sent - s.due }

// phase drives one traffic phase against an instance: open loop at rate
// requests/s when rate > 0, else a closed loop of conns connections
// each sending its next request when the previous one returns.
type phase struct {
	d     *daemon
	id    string
	gen   *opGen
	conns int
	rate  float64
	dur   time.Duration
	force opKind
	tr    *tracer

	mu      sync.Mutex
	count   int
	start   time.Time
	elapsed time.Duration
	samples []sample
}

// claim reserves the next request of the phase, or returns nil when the
// phase is over.
func (p *phase) claim() (*op, time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var due time.Duration
	if p.rate > 0 {
		if p.count >= int(p.rate*p.dur.Seconds()) {
			return nil, 0
		}
		due = time.Duration(float64(p.count) / p.rate * float64(time.Second))
	} else {
		due = time.Since(p.start)
		if due >= p.dur {
			return nil, 0
		}
	}
	p.count++
	return p.gen.next(p.force), due
}

// run executes the phase and returns its samples in completion order.
func (p *phase) run() []sample {
	p.start = time.Now()
	var wg sync.WaitGroup
	for c := 0; c < p.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				o, due := p.claim()
				if o == nil {
					return
				}
				if wait := due - time.Since(p.start); wait > 0 {
					time.Sleep(wait)
				}
				for _, d := range o.deps {
					<-d
				}
				s := p.send(o)
				s.due = due
				close(o.done)
				p.mu.Lock()
				p.samples = append(p.samples, s)
				p.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(p.start)
	return p.samples
}

// send issues one request and checks what it can of the response.
func (p *phase) send(o *op) sample {
	s := sample{op: o, sent: time.Since(p.start)}
	var method, path string
	var body []byte
	switch o.kind {
	case opDrift:
		method, path = "POST", "/instances/"+p.id+"/drift"
		body, _ = json.Marshal(map[string]any{"edits": o.edits})
	case opPlacement:
		method, path = "GET", "/instances/"+p.id+"/placement"
	case opEval:
		method, path = "GET", "/instances/"+p.id+"/eval?policy=closest"
		if len(o.down) > 0 {
			ids := make([]string, len(o.down))
			for i, j := range o.down {
				ids[i] = strconv.Itoa(j)
			}
			path += "&down=" + strings.Join(ids, ",")
		}
	}
	sp := p.tr.begin("loadgen."+kindNames[o.kind], -1, int64(o.idx))
	code, resp, err := p.d.do(context.Background(), method, path, body)
	p.tr.end(sp)
	s.acked = time.Since(p.start)
	s.code, s.err = code, err
	if !s.ok() {
		if s.err == nil {
			s.err = fmt.Errorf("%s %s: status %d", method, path, code)
		}
		return s
	}
	switch o.kind {
	case opDrift:
		s.bad = decode("drift response", resp, &s.tick)
	case opEval:
		s.bad = checkEval(resp, len(o.down))
	}
	return s
}

// driftSet returns the successful drifts among samples in request
// order, the order in which their edits are applied to the benchmark's
// own copy of the demands.
func driftSet(samples []sample) []*op {
	var out []*op
	for i := range samples {
		if samples[i].op.kind == opDrift && samples[i].ok() {
			out = append(out, samples[i].op)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].idx < out[b].idx })
	return out
}
