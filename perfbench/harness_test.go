package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"replicatree/internal/core"
	"replicatree/internal/exper"
	"replicatree/internal/rng"
	"replicatree/internal/serve"
	"replicatree/internal/tree"
)

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 2.5}, {1, 4}, {0.25, 1.75}, {0.9, 3.7},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("quantile of one sample = %v, want 7", got)
	}
}

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 0.999}, {1000, 0.99}, {999, 0.95}, {200, 0.95}, {199, 0.9},
		{100, 0.9}, {40, 0.75}, {20, 0.5}, {19, 1}, {2, 1}, {1, 1},
	} {
		q := tailQuantile(c.n)
		if q != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, q, c.want)
		}
		if q < 1 && c.n-int(math.Ceil(q*float64(c.n))) < minBeyond {
			t.Errorf("tailQuantile(%d) = %v leaves fewer than %d samples beyond", c.n, q, minBeyond)
		}
	}
	sm := summarize([]float64{5, 1, 4, 2, 3})
	if sm.p50 != 3 || sm.tail != 5 || sm.tailQ != 1 || sm.n != 5 {
		t.Errorf("summarize = %+v", sm)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a: covered 10..60
		{Name: "c", Start: 90, End: 120, Parent: 0}, // clipped to the parent
		{Name: "d", Start: 15, End: 20, Parent: 1},
	}
	got := selfTimes(spans)
	want := []int64{100 - 50 - 10, 30 - 5, 30, 30, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

// fakeDaemon answers drifts after delay with a one-request tick.
func fakeDaemon(t *testing.T, delay time.Duration) *daemon {
	t.Helper()
	var tick atomic.Uint64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(delay)
		json.NewEncoder(w).Encode(serve.TickResult{Tick: tick.Add(1), Requests: 1, TookNS: int64(delay)})
	}))
	t.Cleanup(srv.Close)
	return &daemon{base: srv.URL, client: srv.Client()}
}

func smallTree() (*tree.Tree, tree.GenConfig) {
	cfg := tree.ScalePreset(500)
	return tree.MustGenerate(cfg, rng.New(3)), cfg
}

// TestOpenLoopLateness drives an open loop faster than a one-connection
// server can answer: the generator must fall behind, record how late
// it sent each request, and time every request from when it was due.
func TestOpenLoopLateness(t *testing.T) {
	tr, cfg := smallTree()
	const delay = 20 * time.Millisecond
	p := &phase{d: fakeDaemon(t, delay), id: "x", gen: newOpGen(tr, cfg, 1, [numKinds]float64{1, 0, 0}),
		conns: 1, rate: 200, dur: 100 * time.Millisecond, force: numKinds}
	samples := p.run()
	if len(samples) != 20 {
		t.Fatalf("open loop sent %d requests, want rate·duration = 20", len(samples))
	}
	sort.Slice(samples, func(a, b int) bool { return samples[a].op.idx < samples[b].op.idx })
	for i, s := range samples {
		if !s.ok() {
			t.Fatalf("request %d failed: %v", i, s.err)
		}
		if want := time.Duration(i) * 5 * time.Millisecond; s.due != want {
			t.Errorf("request %d due at %v, want %v", i, s.due, want)
		}
		if s.late() < 0 || s.latency() < s.late()+delay {
			t.Errorf("request %d: late %v, latency %v, want 0 <= late and latency >= late + %v", i, s.late(), s.latency(), delay)
		}
	}
	// One connection serves a request per 20ms while one is due every
	// 5ms, so the last request is sent at least 19·15ms behind schedule.
	if last := samples[len(samples)-1].late(); last < 19*15*time.Millisecond {
		t.Errorf("last request %v late, want >= %v", last, 19*15*time.Millisecond)
	}
}

// TestOpGenDeterministicAndOrdered checks that the request stream
// depends only on the seed, targets only real client slots, and makes
// every drift wait for the previous drift editing one of its clients.
func TestOpGenDeterministicAndOrdered(t *testing.T) {
	tr, cfg := smallTree()
	mix := [numKinds]float64{0.5, 0.25, 0.25}
	a, b := newOpGen(tr, cfg, 9, mix), newOpGen(tr, cfg, 9, mix)
	last := map[[2]int]*op{}
	for i := 0; i < 3*len(a.slots); i++ {
		x, y := a.next(numKinds), b.next(numKinds)
		xj, _ := json.Marshal([]any{x.kind, x.edits, x.down})
		yj, _ := json.Marshal([]any{y.kind, y.edits, y.down})
		if string(xj) != string(yj) {
			t.Fatalf("request %d differs between two generators with one seed: %s vs %s", i, xj, yj)
		}
		deps := map[chan struct{}]bool{}
		for _, d := range x.deps {
			deps[d] = true
		}
		for _, ed := range x.edits {
			if ed.Client >= len(tr.Clients(ed.Node)) {
				t.Fatalf("request %d edits client %d of node %d, which has %d", i, ed.Client, ed.Node, len(tr.Clients(ed.Node)))
			}
			if ed.Reqs < cfg.ReqMin || ed.Reqs > cfg.ReqMax {
				t.Fatalf("request %d sets %d requests, outside [%d,%d]", i, ed.Reqs, cfg.ReqMin, cfg.ReqMax)
			}
			k := [2]int{ed.Node, ed.Client}
			if prev := last[k]; prev != nil && !deps[prev.done] {
				t.Fatalf("request %d edits %v without waiting for request %d", i, k, prev.idx)
			}
			last[k] = x
		}
	}
}

func TestCheckPlacement(t *testing.T) {
	tr, _ := smallTree()
	want, err := core.MinCost(tr, nil, serveW, serveCost)
	if err != nil {
		t.Fatal(err)
	}
	modes := make([]int, tr.N())
	for j := range modes {
		modes[j] = int(want.Placement.Mode(j))
	}
	snap := serve.Snapshot{Tick: 4, Modes: modes, Servers: want.Servers, Reused: want.Reused, New: want.New, Cost: want.Cost}
	body, _ := json.Marshal(snap)
	if err := checkPlacement(body, want); err != nil {
		t.Fatalf("correct placement rejected: %v", err)
	}
	// Negative controls: each corruption must fail the check.
	flip := snap
	flip.Modes = append([]int(nil), modes...)
	flip.Modes[len(modes)-1] ^= 1
	cost := snap
	cost.Cost = math.Nextafter(snap.Cost, math.Inf(1))
	servers := snap
	servers.Servers++
	for name, bad := range map[string]serve.Snapshot{"mode": flip, "cost": cost, "servers": servers} {
		body, _ := json.Marshal(bad)
		if checkPlacement(body, want) == nil {
			t.Errorf("placement with a corrupted %s passed the check", name)
		}
	}
}

func TestCheckEval(t *testing.T) {
	good := serve.EvalResult{Issued: 100, Served: 90, FailUnserved: 10, DownNodes: 3}
	body, _ := json.Marshal(good)
	if err := checkEval(body, 3); err != nil {
		t.Fatalf("conserving eval rejected: %v", err)
	}
	up := serve.EvalResult{Issued: 100, Served: 100}
	body, _ = json.Marshal(up)
	if err := checkEval(body, 0); err != nil {
		t.Fatalf("eval with nothing down rejected: %v", err)
	}
	for name, c := range map[string]struct {
		r    serve.EvalResult
		down int
	}{
		"leaky":       {serve.EvalResult{Issued: 100, Served: 91, FailUnserved: 10, DownNodes: 3}, 3},
		"unserved-up": {serve.EvalResult{Issued: 100, Served: 99, Unserved: 1}, 0},
		"down-count":  {serve.EvalResult{Issued: 100, Served: 100}, 3},
	} {
		body, _ := json.Marshal(c.r)
		if checkEval(body, c.down) == nil {
			t.Errorf("%s eval passed the check", name)
		}
	}
}

func TestCheckExp3(t *testing.T) {
	cfg := exper.DefaultExp3()
	cfg.Trees, cfg.Workers = 4, 2
	res, err := exper.RunExp3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkExp3(res); err != nil {
		t.Fatalf("paper experiment rejected: %v", err)
	}
	for name, corrupt := range map[string]func(p *exper.Exp3Point){
		"found":  func(p *exper.Exp3Point) { p.GRFound = p.DPFound + 1 },
		"inv":    func(p *exper.Exp3Point) { p.GRInv = p.DPInv + 1e-9 },
		"excess": func(p *exper.Exp3Point) { p.GRExcessPct = -1e-9 },
	} {
		bad := *res
		bad.Points = append([]exper.Exp3Point(nil), res.Points...)
		corrupt(&bad.Points[len(bad.Points)/2])
		if checkExp3(&bad) == nil {
			t.Errorf("experiment with corrupted %s passed the check", name)
		}
	}
}

// TestNegativeControlDaemon runs the serving checks against the real
// daemon: a short open loop must pass the final placement check, and
// the same check must fail when the benchmark's copy of the demands
// is corrupted.
func TestNegativeControlDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts the daemon")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "replicaserved")
	if out, err := exec.Command("go", "build", "-o", bin, "replicatree/cmd/replicaserved").CombinedOutput(); err != nil {
		t.Fatalf("building the daemon: %v\n%s", err, out)
	}
	for _, chain := range []bool{false, true} {
		cfg := tree.ScalePreset(2000)
		tr := tree.MustGenerate(cfg, rng.New(instanceSeed))
		d, err := startDaemon(bin, filepath.Join(dir, "data"), 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		body, err := loadBody(tr, chain, instanceID)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.mustDo("POST", "/instances", body, 201); err != nil {
			d.kill()
			t.Fatal(err)
		}
		gen := newOpGen(tr, cfg, 5, [numKinds]float64{0.6, 0.2, 0.2})
		p := &phase{d: d, id: instanceID, gen: gen, conns: 2, rate: 200, dur: 300 * time.Millisecond, force: numKinds}
		samples := p.run()
		for _, s := range samples {
			if !s.ok() || s.bad != nil {
				t.Errorf("chain=%v: request %d: %v %v", chain, s.op.idx, s.err, s.bad)
			}
		}
		if _, err := checkFinal(d, tr, chain, gen, samples); err != nil {
			t.Errorf("chain=%v: final check failed on a correct run: %v", chain, err)
		}
		// Corrupt the benchmark's record of the last drift: its copy of
		// the demands no longer matches what the daemon applied.
		drifts := driftSet(samples)
		drifts[len(drifts)-1].edits[0].Reqs = serveW
		_, err = checkFinal(d, tr, chain, gen, samples)
		if err == nil || !strings.Contains(err.Error(), "differs from the cold reference") {
			t.Errorf("chain=%v: final check with corrupted demands returned %v, want a placement mismatch", chain, err)
		}
		d.stop()
		os.RemoveAll(filepath.Join(dir, "data"))
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		defs []metricDef
		got  []struct{ Name, Unit, Better string }
	}{{"end_to_end", endToEnd, bj.EndToEnd}, {"per_layer", perLayer, bj.PerLayer}} {
		if len(c.got) != len(c.defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", c.name, len(c.got), len(c.defs))
		}
		for i, d := range c.defs {
			if g := c.got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark %+v", c.name, i, g, d)
			}
		}
	}
	for _, d := range perLayer {
		if layerMoves[d.name] == "" {
			t.Errorf("per-layer metric %s names no end-to-end metric it moves", d.name)
		}
	}
	listed := map[string]bool{}
	for _, w := range bj.Workloads {
		listed[w.Name] = true
		if _, ok := serveSpecs[w.Name]; !ok && w.Name != "paper-sweep" {
			t.Errorf("BENCHMARK.json workload %s is unknown to the benchmark", w.Name)
		}
	}
	// Every workload is listed but fresh-1e5, which runs by hand only;
	// README.md says why.
	for _, name := range []string{"fresh-1e5", "chain-1e4", "paper-sweep"} {
		if listed[name] == (name == "fresh-1e5") {
			t.Errorf("BENCHMARK.json lists %v, want every workload but fresh-1e5", listed)
		}
	}
}
