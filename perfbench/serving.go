package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"replicatree/internal/core"
	"replicatree/internal/cost"
	"replicatree/internal/exper"
	"replicatree/internal/rng"
	"replicatree/internal/serve"
	"replicatree/internal/tree"
)

// serveSpec is one serving workload: a replicaserved daemon with a
// WAL-backed data directory holding one generated ScalePreset instance
// (MinCost only), driven by rounds of an open loop of mixed requests and
// a closed loop of drift requests.
type serveSpec struct {
	nodes int
	chain bool
	// rate is the open loop's offered load in requests/s. chain-1e4
	// offers about half its drift capacity (8/s against 15-20/s with two
	// connections on a 2-CPU machine); fresh-1e5 offers 27 drifts/s
	// against 80-110/s, because at half capacity its p95 latency measured
	// the generator's own two-connection queue more than the daemon.
	rate float64
	// mix holds the drift, placement and eval shares of the open loop.
	mix [numKinds]float64
	// openShare is the share of --seconds spent in the open loop; the
	// closed loop measuring drift capacity takes the rest.
	openShare float64
	// coldLoads is how many POST + DELETE /instances cycles per round
	// time the cold load.
	coldLoads int
}

var serveSpecs = map[string]serveSpec{
	"fresh-1e5": {nodes: 100_000, rate: 45, mix: [numKinds]float64{0.6, 0.2, 0.2}, openShare: 0.5, coldLoads: 2},
	"chain-1e4": {nodes: 10_000, chain: true, rate: 8, mix: [numKinds]float64{1, 0, 0}, openShare: 0.6, coldLoads: 4},
}

const (
	// instanceSeed draws the serving instances. It is fixed, so that
	// every run serves the same tree and --seed varies only the traffic:
	// the cost of a chained tick depends strongly on the tree's shape,
	// and seeding the tree would make the spread between runs measure
	// trees instead of the program.
	instanceSeed = exper.DefaultSeed
	// serveW is the server capacity of the serving instances, as in the
	// repository's scale benchmarks.
	serveW = 100
	// setupReps is how many times a run sets up from scratch; setup_s
	// is the median.
	setupReps = 5
	// replayBudget bounds each in-process replay of a traced run.
	replayBudget = 4 * time.Second
	// rounds is how many open-loop + closed-loop rounds a run makes.
	rounds = 12
	// instanceID names the served instance.
	instanceID = "bench"
)

var serveCost = cost.Simple{Create: 0.1, Delete: 0.01}

// outcome is what one workload run measured.
type outcome struct {
	e2e       map[string]float64
	layers    map[string]float64
	attempted int
	failed    int
}

// loadBody is the POST /instances body uploading t inline.
func loadBody(t *tree.Tree, chain bool, id string) ([]byte, error) {
	inst, err := json.Marshal(t)
	if err != nil {
		return nil, err
	}
	return json.Marshal(map[string]any{
		"id": id, "w": serveW, "chain": chain,
		"cost":     map[string]float64{"create": serveCost.Create, "delete": serveCost.Delete},
		"instance": json.RawMessage(inst),
	})
}

// placementView is the part of a GET /placement body the checks read.
type placementView struct {
	Tick  uint64 `json:"tick"`
	Modes []int  `json:"modes"`
}

func runServe(e *env, sp serveSpec) (*outcome, error) {
	cfg := tree.ScalePreset(sp.nodes)
	dataDir := filepath.Join(e.out, fmt.Sprintf("data-%d", os.Getpid()))
	defer os.RemoveAll(dataDir)

	var d *daemon
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	var t *tree.Tree
	var body []byte
	var setup []float64
	for r := 0; r < setupReps; r++ {
		if d != nil {
			d.stop()
			d = nil
		}
		if err := os.RemoveAll(dataDir); err != nil {
			return nil, err
		}
		t0 := time.Now()
		t = tree.MustGenerate(cfg, rng.New(instanceSeed))
		var err error
		if body, err = loadBody(t, sp.chain, instanceID); err != nil {
			return nil, err
		}
		if d, err = startDaemon(e.bin, dataDir, e.nproc, e.nproc); err != nil {
			return nil, err
		}
		if _, err := d.mustDo("POST", "/instances", body, 201); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}

	// Cold loads go to a second daemon, so that the garbage each
	// deleted copy leaves does not land on the served instance's
	// latencies.
	coldDir := dataDir + "-cold"
	defer os.RemoveAll(coldDir)
	coldD, err := startDaemon(e.bin, coldDir, e.nproc, e.nproc)
	if err != nil {
		return nil, err
	}
	defer coldD.kill()

	// Every round runs an open-loop phase, the cold loads and a
	// closed-loop phase, so that each metric samples the whole run
	// rather than one stretch of it: the speed of a shared machine
	// drifts over tens of seconds.
	gen := newOpGen(t, cfg, e.seed, sp.mix)
	roundDur := time.Duration(e.seconds) * time.Second / rounds
	openDur := time.Duration(float64(roundDur) * sp.openShare)
	var cold []float64
	var openS, closedS []sample
	var closedTime time.Duration
	for r := 0; r < rounds; r++ {
		open := &phase{d: d, id: instanceID, gen: gen, conns: e.nproc, rate: sp.rate, dur: openDur, force: numKinds, tr: e.tr}
		openS = append(openS, open.run()...)
		for c := 0; c < sp.coldLoads; c++ {
			t0 := time.Now()
			if _, err := coldD.mustDo("POST", "/instances", body, 201); err != nil {
				return nil, err
			}
			cold = append(cold, ms(time.Since(t0)))
			if _, err := coldD.mustDo("DELETE", "/instances/"+instanceID, nil, 200); err != nil {
				return nil, err
			}
		}
		closed := &phase{d: d, id: instanceID, gen: gen, conns: e.nproc, dur: roundDur - openDur, force: opDrift, tr: e.tr}
		closedS = append(closedS, closed.run()...)
		closedTime += closed.elapsed
	}
	coldD.stop()

	all := append(append([]sample(nil), openS...), closedS...)
	for i := range all {
		if all[i].bad != nil {
			return nil, all[i].bad
		}
	}
	last, err := checkFinal(d, t, sp.chain, gen, all)
	if err != nil {
		return nil, err
	}
	all = append(all, last)

	met, err := d.scrape()
	if err != nil {
		return nil, err
	}
	rss := d.stop()
	d = nil

	out := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}, attempted: len(all)}
	for i := range all {
		if !all[i].ok() {
			out.failed++
		}
	}
	var driftLat, placeLat, evalLat, late []float64
	for i := range openS {
		s := &openS[i]
		late = append(late, ms(s.late()))
		if !s.ok() {
			continue
		}
		switch s.op.kind {
		case opDrift:
			driftLat = append(driftLat, ms(s.latency()))
		case opPlacement:
			placeLat = append(placeLat, ms(s.latency()))
		case opEval:
			evalLat = append(evalLat, ms(s.latency()))
		}
	}
	dl := summarize(driftLat)
	if dl.n == 0 {
		return nil, errors.New("no drift request succeeded in the open loop")
	}
	acks := 0
	for i := range closedS {
		if closedS[i].ok() {
			acks++
		}
	}
	out.e2e["setup_s"] = median(setup)
	out.e2e["cold_load_ms"] = median(cold)
	out.e2e["op_p50_ms"] = dl.p50
	out.e2e["op_tail_ms"] = dl.tail
	out.e2e["op_rate_per_s"] = float64(acks) / closedTime.Seconds()
	out.e2e["peak_rss_mb"] = rss
	cl := map[string]float64{}
	tickLayers(cl, closedS)
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d open-loop drifts, tail = p%g; %d closed-loop acks in %.2fs, %.2f requests/tick (took %.2fms)\n",
		e.workload, dl.n, 100*dl.tailQ, acks, closedTime.Seconds(), cl["serve.coalesce"], cl["serve.tick_took_ms"])

	tickLayers(out.layers, openS)
	pl, ev := summarize(placeLat), summarize(evalLat)
	out.layers["loadgen.placement_ms.p50"], out.layers["loadgen.placement_ms.tail"] = pl.p50, pl.tail
	out.layers["loadgen.eval_ms.p50"], out.layers["loadgen.eval_ms.tail"] = ev.p50, ev.tail
	out.layers["loadgen.late_tail_ms"] = summarize(late).tail
	inst := fmt.Sprintf("{instance=%q}", instanceID)
	out.layers["serve.shed"] = met["replicaserved_drift_shed_total"+inst]
	out.layers["serve.tick_failures"] = met["replicaserved_tick_failures_total"+inst]
	if n := met["replicaserved_wal_fsync_seconds_count"+inst]; n > 0 {
		out.layers["serve.wal_fsync_ms"] = 1e3 * met["replicaserved_wal_fsync_seconds_sum"+inst] / n
	}
	if e.tr != nil {
		if err := replayServe(e, sp, cfg, driftSet(openS), out.layers); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// checkFinal checks the daemon's state after the load: it fetches the
// placement P_k, sends one more drift, and requires P_{k+1} to be
// byte-identical to a cold core.MinCost solve of the benchmark's own
// copy of the demands, with P_k as the pre-existing set when the
// instance chains placements. It returns the sample of that drift.
func checkFinal(d *daemon, t *tree.Tree, chain bool, gen *opGen, all []sample) (sample, error) {
	local := t.Clone()
	apply := func(ops []*op) {
		for _, o := range ops {
			for _, ed := range o.edits {
				local.SetDemand(ed.Node, ed.Client, ed.Reqs)
			}
		}
	}
	apply(driftSet(all))
	path := "/instances/" + instanceID + "/placement"
	b, err := d.mustDo("GET", path, nil, 200)
	if err != nil {
		return sample{}, err
	}
	var pk placementView
	if err := decode("placement", b, &pk); err != nil {
		return sample{}, err
	}
	p := &phase{d: d, id: instanceID, start: time.Now()}
	s := p.send(gen.next(opDrift))
	close(s.op.done)
	if !s.ok() {
		return s, fmt.Errorf("final drift failed: %v", s.err)
	}
	apply([]*op{s.op})
	b, err = d.mustDo("GET", path, nil, 200)
	if err != nil {
		return s, err
	}
	var pk1 placementView
	if err := decode("placement", b, &pk1); err != nil {
		return s, err
	}
	if pk1.Tick != pk.Tick+1 {
		return s, fmt.Errorf("final drift moved the placement from tick %d to %d, want one tick", pk.Tick, pk1.Tick)
	}
	var existing *tree.Replicas
	if chain {
		existing = replicasOf(pk.Modes)
	}
	want, err := core.MinCost(local, existing, serveW, serveCost)
	if err != nil {
		return s, fmt.Errorf("reference solve: %w", err)
	}
	if err := checkPlacement(b, want); err != nil {
		return s, fmt.Errorf("tick %d: %w", pk1.Tick, err)
	}
	return s, nil
}

// tickLayers reads the per-tick counters the daemon returns with every
// drift: SolveStats, took_ns and the coalesced request count, once per
// distinct tick.
func tickLayers(layers map[string]float64, samples []sample) {
	seen := map[uint64]bool{}
	var took, wait []float64
	var reqs, rec, cells, rows, fold float64
	for i := range samples {
		s := &samples[i]
		if s.op.kind != opDrift || !s.ok() {
			continue
		}
		wait = append(wait, ms(s.acked-s.sent)-float64(s.tick.TookNS)/1e6)
		if seen[s.tick.Tick] {
			continue
		}
		seen[s.tick.Tick] = true
		took = append(took, float64(s.tick.TookNS)/1e6)
		st := s.tick.Stats.MinCost
		reqs += float64(s.tick.Requests)
		rec += float64(st.Recomputed)
		cells += float64(st.MergeCellsScanned)
		rows += float64(st.RowsCompressed)
		fold += float64(st.FoldSuffixReplayed)
	}
	n := float64(len(seen))
	if n == 0 {
		return
	}
	layers["serve.tick_took_ms"] = median(took)
	layers["serve.queue_wait_ms"] = median(wait)
	layers["serve.coalesce"] = reqs / n
	layers["core.mincost.recomputed"] = rec / n
	layers["core.mincost.merge_cells"] = cells / n
	layers["core.mincost.rows_compressed"] = rows / n
	layers["core.mincost.fold_replayed"] = fold / n
}

// replayServe times the layers in-process: it decodes the uploaded
// instance, cold-solves and loads it, then replays the open loop's
// drift stream through a twin MinCostSolver and a twin serve.Session.
func replayServe(e *env, sp serveSpec, cfg tree.GenConfig, drifts []*op, layers map[string]float64) error {
	tr := e.tr
	base := tree.MustGenerate(cfg, rng.New(instanceSeed))
	inst, err := json.Marshal(base)
	if err != nil {
		return err
	}
	var readT, coldT, loadT []float64
	opts := serve.Options{W: serveW, Cost: serveCost, Chain: sp.chain, Workers: e.nproc}
	for r := 0; r < setupReps; r++ {
		s := tr.begin("tree.read_instance", -1, -1)
		if _, _, err := tree.ReadInstanceJSON(bytes.NewReader(inst)); err != nil {
			return err
		}
		readT = append(readT, ms(tr.end(s)))

		solver := core.NewMinCostSolver(base)
		solver.SetWorkers(e.nproc)
		dst := tree.NewReplicas(base.N())
		s = tr.begin("core.mincost.cold", -1, -1)
		if _, err := solver.SolveInto(tree.NewReplicas(base.N()), serveW, serveCost, dst); err != nil {
			return err
		}
		coldT = append(coldT, ms(tr.end(s)))
		solver.SetWorkers(1)

		s = tr.begin("serve.load", -1, -1)
		sess, err := serve.NewSession("replay", base.Clone(), nil, opts, nil, nil, 0)
		if err != nil {
			return err
		}
		loadT = append(loadT, ms(tr.end(s)))
		sess.Close()
	}
	layers["tree.read_instance_ms"] = median(readT)
	layers["core.mincost.cold_ms"] = median(coldT)
	layers["serve.load_ms"] = median(loadT)

	// Twin solver: the same edits, one solve per drift request.
	twin := base.Clone()
	solver := core.NewMinCostSolver(twin)
	solver.SetWorkers(e.nproc)
	defer solver.SetWorkers(1)
	exist, dst := tree.NewReplicas(twin.N()), tree.NewReplicas(twin.N())
	if _, err := solver.SolveInto(exist, serveW, serveCost, dst); err != nil {
		return err
	}
	if sp.chain {
		exist, dst = dst, exist
	}
	eng := tree.NewEngine(twin)
	var setT, solveT, evalT []float64
	deadline := time.Now().Add(replayBudget)
	for i, o := range drifts {
		if time.Now().After(deadline) {
			break
		}
		req := int64(o.idx)
		root := tr.begin("replay.tick", -1, req)
		s := tr.begin("tree.set_demand", root, req)
		for _, ed := range o.edits {
			twin.SetDemand(ed.Node, ed.Client, ed.Reqs)
		}
		setT = append(setT, float64(tr.end(s))/1e3)
		s = tr.begin("core.mincost.solve", root, req)
		if _, err := solver.SolveInto(exist, serveW, serveCost, dst); err != nil {
			return err
		}
		solveT = append(solveT, ms(tr.end(s)))
		cur := dst
		if sp.chain {
			exist, dst = dst, exist
		}
		if i%10 == 0 {
			s = tr.begin("tree.eval", root, req)
			eng.EvalUniformMasked(cur, tree.PolicyClosest, serveW, nil)
			evalT = append(evalT, ms(tr.end(s)))
		}
		tr.end(root)
	}
	sv := summarize(solveT)
	layers["tree.set_demand_us"] = median(setT)
	layers["core.mincost.solve_ms.p50"] = sv.p50
	layers["core.mincost.solve_ms.tail"] = sv.tail
	layers["tree.eval_ms"] = median(evalT)

	// Twin session: the same drift requests through serve.Session.
	sess, err := serve.NewSession("replay", base.Clone(), nil, opts, nil, nil, 0)
	if err != nil {
		return err
	}
	defer sess.Close()
	var driftT, sevalT, encT []float64
	deadline = time.Now().Add(replayBudget)
	for i, o := range drifts {
		if time.Now().After(deadline) {
			break
		}
		req := int64(o.idx)
		s := tr.begin("serve.drift", -1, req)
		if _, err := sess.Drift(o.edits, nil); err != nil {
			return fmt.Errorf("replayed drift: %w", err)
		}
		driftT = append(driftT, ms(tr.end(s)))
		if i%10 == 0 {
			s = tr.begin("serve.eval", -1, req)
			if _, err := sess.Eval(tree.PolicyClosest, nil, nil); err != nil {
				return err
			}
			sevalT = append(sevalT, ms(tr.end(s)))
			s = tr.begin("serve.snapshot_encode", -1, req)
			if _, err := json.Marshal(sess.Snapshot()); err != nil {
				return err
			}
			encT = append(encT, ms(tr.end(s)))
		}
	}
	layers["serve.drift_ms"] = median(driftT)
	layers["serve.eval_ms"] = median(sevalT)
	layers["serve.snapshot_encode_ms"] = median(encT)
	return nil
}
