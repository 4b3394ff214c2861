// Command replicatool solves individual replica placement instances from
// the command line. Trees and pre-existing deployments are JSON files
// (see internal/tree's format: {"parents": [-1, 0, ...], "clients":
// [[2], [], [7], ...]} and {"modes": [0, 1, ...]}). Tree files may
// additionally carry QoS and bandwidth constraints (arXiv 0706.3350):
// an optional "qos" field with one bound per client (0 = unbounded)
// and an optional "bandwidth" field with one capacity per upward link
// (negative = unbounded).
//
// Subcommands:
//
//	gen       generate a random tree JSON on stdout
//	mincost   solve MinCost-WithPre (or NoPre without -existing)
//	minpower  solve MinPower / MinPower-BoundedCost
//	pareto    print the full cost/power Pareto front
//	greedy    run the greedy baseline (or the exact QoS DP with -exact)
//	check     validate a placement against a tree
//	drift     replay a demand-drift sequence with one incremental solver
//	serve     run the placement-as-a-service daemon (alias of replicaserved)
//
// minpower and pareto accept -stats to include the solver's SolveStats
// (recomputed tables, root cells scanned/repriced, merge cells scanned,
// rows run compressed, fold suffixes replayed) in the output, and
// drift accepts -power to replay the sequence through the incremental
// power DP, reporting the per-step root-scan counters; drift -stats
// adds the per-step merge-layer counters too; drift -fail injects a
// stochastic node-fault schedule (-mttf/-mttr) so every step's re-solve
// places around the currently down nodes. The exact solvers take
// -workers to parallelise the post-order DP waves (0 = all CPUs);
// results are bit-identical for every worker count.
//
// The greedy and check subcommands accept -policy closest|upwards|multiple
// to place and validate under the access policies of arXiv cs/0611034
// (the exact solvers assume the closest policy), and -qos/-bw to
// override the instance's constraints with uniform ones. greedy -exact
// runs the exact polynomial algorithm of arXiv 0706.3350 instead of
// the greedy baseline (closest policy only). The mincost, minpower and
// pareto solvers are unconstrained and ignore any constraints in the
// instance (a note is printed when they do).
//
// Examples:
//
//	replicatool gen -nodes 50 -shape fat -seed 7 -qos 3 -bw 40 > tree.json
//	replicatool mincost -tree tree.json -w 10 -create 0.1 -delete 0.01
//	replicatool minpower -tree tree.json -caps 5,10 -bound 25
//	replicatool pareto -tree tree.json -caps 5,10
//	replicatool greedy -tree tree.json -w 10 -exact
//	replicatool check -tree tree.json -placement sol.json -qos 3
//	replicatool drift -tree tree.json -w 10 -steps 20 -k 3
//	replicatool drift -tree tree.json -w 10 -steps 20 -fail -mttf 30 -mttr 5
//	replicatool drift -tree tree.json -power -caps 5,10 -steps 20 -k 3
//	replicatool minpower -tree tree.json -caps 5,10 -stats
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"replicatree"
	"replicatree/internal/serve"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "mincost":
		err = cmdMinCost(os.Args[2:])
	case "minpower", "pareto":
		err = cmdMinPower(os.Args[1], os.Args[2:])
	case "greedy":
		err = cmdGreedy(os.Args[2:])
	case "check":
		err = cmdCheck(os.Args[2:])
	case "drift":
		err = cmdDrift(os.Args[2:])
	case "serve":
		err = serve.Run(os.Args[2:], os.Stdout, os.Stderr)
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "replicatool: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: replicatool <gen|mincost|minpower|pareto|greedy|check|drift|serve> [flags]")
	fmt.Fprintln(os.Stderr, "run 'replicatool <subcommand> -h' for flags")
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	nodes := fs.Int("nodes", 50, "number of internal nodes")
	shapeF := fs.String("shape", "fat", "tree shape: fat (6-9 children) or high (2-4)")
	reqMax := fs.Int("reqmax", 6, "maximum client request count")
	seed := fs.Uint64("seed", 1, "random seed")
	qos := fs.Int("qos", 0, "uniform per-client QoS bound to embed (0 = none)")
	bw := fs.Int("bw", -1, "uniform per-link bandwidth to embed (negative = none)")
	fs.Parse(args)

	var cfg replicatree.GenConfig
	switch *shapeF {
	case "fat":
		cfg = replicatree.FatConfig(*nodes)
	case "high":
		cfg = replicatree.HighConfig(*nodes)
	default:
		return fmt.Errorf("replicatool: unknown shape %q", *shapeF)
	}
	cfg.ReqMax = *reqMax
	t, err := replicatree.GenerateTree(cfg, replicatree.NewRNG(*seed))
	if err != nil {
		return err
	}
	var cons *replicatree.Constraints
	cons = applyUniformConstraints(t, cons, *qos, *bw)
	return replicatree.WriteInstanceJSON(os.Stdout, t, cons)
}

// loadInstance reads a tree file together with any embedded QoS and
// bandwidth constraints (nil when the file carries none).
func loadInstance(path string) (*replicatree.Tree, *replicatree.Constraints, error) {
	if path == "" {
		return nil, nil, fmt.Errorf("replicatool: -tree is required")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return replicatree.ReadInstanceJSON(f)
}

// loadTree reads a tree file for the unconstrained solvers, noting
// ignored constraints on stderr.
func loadTree(path string) (*replicatree.Tree, error) {
	t, cons, err := loadInstance(path)
	if err != nil {
		return nil, err
	}
	if cons != nil {
		fmt.Fprintln(os.Stderr, "replicatool: note: this solver is unconstrained; ignoring the instance's QoS/bandwidth constraints")
	}
	return t, nil
}

// applyUniformConstraints overlays uniform -qos/-bw flag values (qos >
// 0, bw >= 0) on the instance's constraints, materialising a set when
// needed.
func applyUniformConstraints(t *replicatree.Tree, cons *replicatree.Constraints, qos, bw int) *replicatree.Constraints {
	if qos <= 0 && bw < 0 {
		return cons
	}
	if cons == nil {
		cons = replicatree.NewConstraints(t)
	} else {
		cons = cons.Clone()
	}
	if qos > 0 {
		cons.SetUniformQoS(t, qos)
	}
	if bw >= 0 {
		cons.SetUniformBandwidth(bw)
	}
	return cons
}

func loadExisting(path string, t *replicatree.Tree) (*replicatree.Replicas, error) {
	if path == "" {
		return replicatree.ReplicasOf(t), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return replicatree.ReadReplicasJSON(f, t)
}

func parseCaps(spec string) ([]int, error) {
	parts := strings.Split(spec, ",")
	caps := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("replicatool: invalid capacity %q", p)
		}
		caps = append(caps, v)
	}
	return caps, nil
}

// emit prints a result object as indented JSON.
func emit(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// workersFlag registers the shared -workers flag of the exact solvers.
func workersFlag(fs *flag.FlagSet) *int {
	return fs.Int("workers", 0, "parallel solve workers (0 = all CPUs; results are identical for every count)")
}

func cmdMinCost(args []string) error {
	fs := flag.NewFlagSet("mincost", flag.ExitOnError)
	treeF := fs.String("tree", "", "tree JSON file")
	existingF := fs.String("existing", "", "pre-existing replicas JSON file")
	w := fs.Int("w", 10, "server capacity W")
	create := fs.Float64("create", 0.1, "creation cost")
	del := fs.Float64("delete", 0.01, "deletion cost")
	workers := workersFlag(fs)
	fs.Parse(args)

	t, err := loadTree(*treeF)
	if err != nil {
		return err
	}
	existing, err := loadExisting(*existingF, t)
	if err != nil {
		return err
	}
	solver := replicatree.NewMinCostSolver(t)
	solver.SetWorkers(*workers)
	res, err := solver.Solve(existing, *w, replicatree.SimpleCost{Create: *create, Delete: *del})
	if err != nil {
		return err
	}
	return emit(struct {
		Cost     float64               `json:"cost"`
		Servers  int                   `json:"servers"`
		Reused   int                   `json:"reused"`
		New      int                   `json:"new"`
		Replicas *replicatree.Replicas `json:"replicas"`
	}{res.Cost, res.Servers, res.Reused, res.New, res.Placement})
}

func powerSetup(fs *flag.FlagSet) (treeF, existingF *string, caps *string, static, alpha *float64, create, del, change *float64) {
	treeF = fs.String("tree", "", "tree JSON file")
	existingF = fs.String("existing", "", "pre-existing replicas JSON file")
	caps = fs.String("caps", "5,10", "mode capacities W_1,...,W_M")
	static = fs.Float64("static", 12.5, "static power P(static)")
	alpha = fs.Float64("alpha", 3, "dynamic power exponent")
	create = fs.Float64("create", 0.1, "per-mode creation cost")
	del = fs.Float64("delete", 0.01, "per-mode deletion cost")
	change = fs.Float64("change", 0.001, "mode change cost")
	return
}

func cmdMinPower(sub string, args []string) error {
	fs := flag.NewFlagSet(sub, flag.ExitOnError)
	treeF, existingF, capsF, static, alpha, create, del, change := powerSetup(fs)
	bound := fs.Float64("bound", math.Inf(1), "cost bound (minpower only; +Inf = unconstrained)")
	stats := fs.Bool("stats", false, "include the solver's SolveStats (recomputed tables, root cells scanned/repriced, merge-layer counters) in the output")
	workers := workersFlag(fs)
	fs.Parse(args)

	t, err := loadTree(*treeF)
	if err != nil {
		return err
	}
	existing, err := loadExisting(*existingF, t)
	if err != nil {
		return err
	}
	caps, err := parseCaps(*capsF)
	if err != nil {
		return err
	}
	pm, err := replicatree.NewPowerModel(caps, *static, *alpha)
	if err != nil {
		return err
	}
	cm := replicatree.UniformModalCost(len(caps), *create, *del, *change)
	dp := replicatree.NewPowerDP(t)
	dp.SetWorkers(*workers)
	solver, err := dp.Solve(replicatree.PowerProblem{
		Existing: existing, Power: pm, Cost: cm,
	})
	if err != nil {
		return err
	}

	var st *statsOut
	if *stats {
		st = newStatsOut(dp.Stats())
	}
	if sub == "pareto" {
		if st != nil {
			return emit(struct {
				Front []replicatree.ParetoPoint `json:"front"`
				Stats *statsOut                 `json:"stats"`
			}{solver.Front(), st})
		}
		return emit(solver.Front())
	}
	res, ok := solver.Best(*bound)
	if !ok {
		return fmt.Errorf("replicatool: no solution within cost bound %v (cheapest is %v)",
			*bound, solver.Front()[0].Cost)
	}
	return emit(struct {
		Power    float64               `json:"power"`
		Cost     float64               `json:"cost"`
		Servers  int                   `json:"servers"`
		Replicas *replicatree.Replicas `json:"replicas"`
		Stats    *statsOut             `json:"stats,omitempty"`
	}{res.Power, res.Cost, res.Placement.Count(), res.Placement, st})
}

// statsOut is the JSON shape of a solver's SolveStats.
type statsOut struct {
	Nodes             int `json:"nodes"`
	Recomputed        int `json:"recomputed_tables"`
	RootCellsRepriced int `json:"root_cells_repriced"`
	// Merge-layer counters: table cells the merge kernels touched
	// (breakpoint runs for compressed steps), DP rows run in compressed
	// form, and merge steps replayed by partial suffix folds at
	// high-fanout nodes.
	MergeCellsScanned  int `json:"merge_cells_scanned"`
	RowsCompressed     int `json:"rows_compressed"`
	FoldSuffixReplayed int `json:"fold_suffix_replayed"`
}

func newStatsOut(st replicatree.SolveStats) *statsOut {
	return &statsOut{
		Nodes:              st.Nodes,
		Recomputed:         st.Recomputed,
		RootCellsRepriced:  st.RootCellsRepriced,
		MergeCellsScanned:  st.MergeCellsScanned,
		RowsCompressed:     st.RowsCompressed,
		FoldSuffixReplayed: st.FoldSuffixReplayed,
	}
}

func cmdGreedy(args []string) error {
	fs := flag.NewFlagSet("greedy", flag.ExitOnError)
	treeF := fs.String("tree", "", "tree JSON file")
	w := fs.Int("w", 10, "server capacity W")
	policyF := fs.String("policy", "closest", "access policy: closest, upwards or multiple")
	qos := fs.Int("qos", 0, "uniform per-client QoS bound (0 = keep the instance's)")
	bw := fs.Int("bw", -1, "uniform per-link bandwidth (negative = keep the instance's)")
	exact := fs.Bool("exact", false, "run the exact QoS DP of arXiv 0706.3350 (closest policy only)")
	workers := workersFlag(fs)
	fs.Parse(args)

	t, cons, err := loadInstance(*treeF)
	if err != nil {
		return err
	}
	cons = applyUniformConstraints(t, cons, *qos, *bw)
	policy, err := replicatree.ParsePolicy(*policyF)
	if err != nil {
		return err
	}
	algorithm := "greedy"
	var sol *replicatree.Replicas
	if *exact {
		if policy != replicatree.PolicyClosest {
			return fmt.Errorf("replicatool: -exact solves the closest policy only (got %v)", policy)
		}
		algorithm = "exact-dp"
		qs := replicatree.NewQoSSolver(t)
		qs.SetWorkers(*workers)
		sol, err = qs.Solve(*w, cons, nil)
	} else {
		sol, err = replicatree.GreedyMinReplicasPolicyConstrained(t, *w, policy, cons)
	}
	if err != nil {
		return err
	}
	return emit(struct {
		Policy      string                `json:"policy"`
		Algorithm   string                `json:"algorithm"`
		Constrained bool                  `json:"constrained"`
		Servers     int                   `json:"servers"`
		Replicas    *replicatree.Replicas `json:"replicas"`
	}{policy.String(), algorithm, cons.Bounded(), sol.Count(), sol})
}

// cmdDrift replays a demand-drift sequence on one tree through a single
// warm incremental solver: every step mutates k random client demands
// in place (Tree.SetDemand) and re-solves incrementally, taking the
// previous step's placement as the pre-existing set. The per-step
// output shows how many of the tree's node tables the solver actually
// rebuilt — the dirty ancestor chains — next to the reconfiguration it
// chose. With -power the replay drives the MinPower-BoundedCost DP
// instead of MinCost, and each step additionally reports how many root
// table cells the root scan priced (root_cells_repriced: the starts of
// the root rows' runs).
func cmdDrift(args []string) error {
	fs := flag.NewFlagSet("drift", flag.ExitOnError)
	treeF := fs.String("tree", "", "tree JSON file")
	w := fs.Int("w", 10, "server capacity W (mincost mode)")
	steps := fs.Int("steps", 20, "number of drift steps")
	k := fs.Int("k", 3, "client demands redrawn per step")
	reqMax := fs.Int("reqmax", 6, "maximum redrawn request count")
	seed := fs.Uint64("seed", 1, "random seed for the drift sequence")
	create := fs.Float64("create", 0.1, "creation cost")
	del := fs.Float64("delete", 0.01, "deletion cost")
	usePower := fs.Bool("power", false, "replay through the power DP (uses -caps/-static/-alpha/-change)")
	fail := fs.Bool("fail", false, "inject stochastic node failures: each step the masked solver re-places around the down nodes")
	mttf := fs.Float64("mttf", 40, "with -fail: mean steps between node failures")
	mttr := fs.Float64("mttr", 8, "with -fail: mean steps to node recovery")
	capsF := fs.String("caps", "5,10", "mode capacities W_1,...,W_M (power mode)")
	static := fs.Float64("static", 12.5, "static power P(static) (power mode)")
	alpha := fs.Float64("alpha", 3, "dynamic power exponent (power mode)")
	change := fs.Float64("change", 0.001, "mode change cost (power mode)")
	stats := fs.Bool("stats", false, "add the per-step merge-layer counters (cells scanned, rows compressed, fold suffixes replayed)")
	workers := workersFlag(fs)
	fs.Parse(args)

	if *steps <= 0 || *k < 0 || *reqMax < 1 {
		return fmt.Errorf("replicatool: drift needs -steps > 0, -k >= 0 and -reqmax >= 1")
	}
	t, err := loadTree(*treeF)
	if err != nil {
		return err
	}
	var clients [][2]int // (node, client index) pairs eligible for drift
	for j := 0; j < t.N(); j++ {
		for ci := range t.Clients(j) {
			clients = append(clients, [2]int{j, ci})
		}
	}
	if len(clients) == 0 {
		return fmt.Errorf("replicatool: the tree has no clients to drift")
	}
	src := replicatree.NewRNG(*seed)
	drift := func() int {
		changed := 0
		for i := 0; i < *k; i++ {
			pick := clients[src.IntN(len(clients))]
			if t.SetDemand(pick[0], pick[1], src.Between(1, *reqMax)) {
				changed++
			}
		}
		return changed
	}
	if *usePower {
		if *fail {
			return fmt.Errorf("replicatool: -fail replays through the masked mincost solver only (drop -power)")
		}
		caps, err := parseCaps(*capsF)
		if err != nil {
			return err
		}
		pm, err := replicatree.NewPowerModel(caps, *static, *alpha)
		if err != nil {
			return err
		}
		cm := replicatree.UniformModalCost(len(caps), *create, *del, *change)
		return driftPower(t, *steps, drift, pm, cm, *workers, *stats)
	}

	// With -fail, a stochastic node-fault schedule (drawn from the same
	// seed as the drift) advances alongside the demand drift; the solver
	// carries the mask, so every step's placement avoids the currently
	// down nodes and a step's re-solve is charged only the crash/demand
	// ancestor chains. Steps where the outage makes the instance
	// infeasible are reported as such and keep the previous placement.
	var mask *replicatree.FailureMask
	var sched *replicatree.FailureSchedule
	if *fail {
		sched, err = replicatree.StochasticFailures(replicatree.StochasticFailureConfig{
			Nodes: t.N(), Horizon: *steps, MTTF: *mttf, MTTR: *mttr, Seed: *seed,
		})
		if err != nil {
			return err
		}
		mask = replicatree.NewFailureMask(t.N())
	}

	c := replicatree.SimpleCost{Create: *create, Delete: *del}
	solver := replicatree.NewMinCostSolver(t)
	solver.SetWorkers(*workers)
	if mask != nil {
		sched.AdvanceTo(0, mask)
		solver.SetMask(mask)
	}
	res, err := solver.Solve(nil, *w, c)
	if err != nil {
		return err
	}
	placement, spare := res.Placement, replicatree.ReplicasOf(t)

	out := newDriftOut(res.Servers, *stats)
	for s := 1; s <= *steps; s++ {
		changed := drift()
		if mask != nil {
			sched.AdvanceTo(s, mask)
		}
		upd, err := solver.SolveInto(placement, *w, c, spare)
		st := solver.Stats()
		step := driftStep{
			Step: s, Changed: changed,
			Recomputed: st.Recomputed, Nodes: st.Nodes,
		}
		if mask != nil {
			down, masked := mask.DownNodes(), st.MaskedNodes
			step.DownNodes, step.MaskedNodes = &down, &masked
		}
		switch {
		case errors.Is(err, replicatree.ErrInfeasible):
			// The current outage leaves some demand unplaceable; keep
			// the previous placement until nodes recover.
			step.Infeasible = true
			step.Servers, step.Cost = placement.Count(), 0
		case err != nil:
			return err
		default:
			step.Servers, step.Reused, step.Cost = upd.Servers, upd.Reused, upd.Cost
			placement, spare = upd.Placement, placement
		}
		out.account(&step, st)
		out.Steps = append(out.Steps, step)
	}
	return emit(out)
}

type driftStep struct {
	Step       int     `json:"step"`
	Changed    int     `json:"changed_demands"`
	Recomputed int     `json:"recomputed_tables"`
	Nodes      int     `json:"nodes"`
	Servers    int     `json:"servers"`
	Reused     int     `json:"reused"`
	Cost       float64 `json:"cost"`
	// -fail extras: nodes down this step, nodes the solver's mask held
	// down during the re-solve, and whether the outage made the step
	// infeasible (the previous placement is kept).
	DownNodes   *int `json:"down_nodes,omitempty"`
	MaskedNodes *int `json:"masked_nodes,omitempty"`
	Infeasible  bool `json:"infeasible,omitempty"`
	// Power-mode extras: the solution's power and the root-scan
	// counter. Pointers so power mode always emits them while mincost
	// mode omits them entirely.
	Power             *float64 `json:"power,omitempty"`
	RootCellsRepriced *int     `json:"root_cells_repriced,omitempty"`
	// -stats extras: the merge-layer counters of the step's re-solve,
	// emitted (zeros included) only when the flag is set.
	MergeCellsScanned  *int `json:"merge_cells_scanned,omitempty"`
	RowsCompressed     *int `json:"rows_compressed,omitempty"`
	FoldSuffixReplayed *int `json:"fold_suffix_replayed,omitempty"`
}

type driftOut struct {
	Initial int         `json:"initial_servers"`
	Steps   []driftStep `json:"steps"`
	// TablesRebuilt sums recomputed tables across steps; a
	// non-incremental replay would rebuild steps × nodes
	// (tables_full_rebuild).
	TablesRebuilt int `json:"tables_rebuilt"`
	TablesFull    int `json:"tables_full_rebuild"`
	// Power mode: total root cells priced across steps. A pointer so
	// power mode always emits the total.
	RootCellsRepriced *int `json:"root_cells_repriced,omitempty"`
	// -stats totals of the per-step merge-layer counters.
	MergeCellsScanned  *int `json:"merge_cells_scanned,omitempty"`
	RowsCompressed     *int `json:"rows_compressed,omitempty"`
	FoldSuffixReplayed *int `json:"fold_suffix_replayed,omitempty"`
}

// newDriftOut builds the replay accumulator, wiring the merge-layer
// totals when -stats is set.
func newDriftOut(initial int, stats bool) driftOut {
	out := driftOut{Initial: initial}
	if stats {
		out.MergeCellsScanned = new(int)
		out.RowsCompressed = new(int)
		out.FoldSuffixReplayed = new(int)
	}
	return out
}

// account folds one step's SolveStats into the replay totals and, when
// -stats is on, attaches the step's merge-layer counters.
func (o *driftOut) account(step *driftStep, st replicatree.SolveStats) {
	o.TablesRebuilt += st.Recomputed
	o.TablesFull += st.Nodes
	if o.MergeCellsScanned == nil {
		return
	}
	cells, rows, replayed := st.MergeCellsScanned, st.RowsCompressed, st.FoldSuffixReplayed
	step.MergeCellsScanned, step.RowsCompressed, step.FoldSuffixReplayed = &cells, &rows, &replayed
	*o.MergeCellsScanned += cells
	*o.RowsCompressed += rows
	*o.FoldSuffixReplayed += replayed
}

// driftPower is cmdDrift's power-DP replay: each step re-solves the
// MinPower-BoundedCost program incrementally, taking the previous
// minimal-power placement (with its operating modes) as the
// pre-existing deployment.
func driftPower(t *replicatree.Tree, steps int, drift func() int, pm replicatree.PowerModel, cm replicatree.ModalCost, workers int, stats bool) error {
	dp := replicatree.NewPowerDP(t)
	dp.SetWorkers(workers)
	sol, err := dp.Solve(replicatree.PowerProblem{Power: pm, Cost: cm})
	if err != nil {
		return err
	}
	first := sol.MinPower()
	placement, spare := first.Placement, replicatree.ReplicasOf(t)

	out := newDriftOut(placement.Count(), stats)
	var totalRepriced int
	out.RootCellsRepriced = &totalRepriced
	for s := 1; s <= steps; s++ {
		changed := drift()
		sol, err := dp.Solve(replicatree.PowerProblem{Existing: placement, Power: pm, Cost: cm})
		if err != nil {
			return err
		}
		upd, ok := sol.BestInto(math.Inf(1), spare)
		if !ok {
			return fmt.Errorf("replicatool: drift step %d became infeasible", s)
		}
		st := dp.Stats()
		power, repriced := upd.Power, st.RootCellsRepriced
		step := driftStep{
			Step: s, Changed: changed,
			Recomputed: st.Recomputed, Nodes: st.Nodes,
			Servers: upd.Placement.Count(), Reused: upd.Placement.Reused(placement),
			Cost: upd.Cost, Power: &power,
			RootCellsRepriced: &repriced,
		}
		out.account(&step, st)
		out.Steps = append(out.Steps, step)
		totalRepriced += st.RootCellsRepriced
		placement, spare = upd.Placement, placement
	}
	return emit(out)
}

func cmdCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	treeF := fs.String("tree", "", "tree JSON file")
	placementF := fs.String("placement", "", "placement JSON file")
	capsF := fs.String("caps", "10", "mode capacities W_1,...,W_M")
	policyF := fs.String("policy", "closest", "access policy: closest, upwards or multiple")
	qos := fs.Int("qos", 0, "uniform per-client QoS bound (0 = keep the instance's)")
	bw := fs.Int("bw", -1, "uniform per-link bandwidth (negative = keep the instance's)")
	fs.Parse(args)

	t, cons, err := loadInstance(*treeF)
	if err != nil {
		return err
	}
	cons = applyUniformConstraints(t, cons, *qos, *bw)
	if *placementF == "" {
		return fmt.Errorf("replicatool: -placement is required")
	}
	f, err := os.Open(*placementF)
	if err != nil {
		return err
	}
	defer f.Close()
	placement, err := replicatree.ReadReplicasJSON(f, t)
	if err != nil {
		return err
	}
	caps, err := parseCaps(*capsF)
	if err != nil {
		return err
	}
	policy, err := replicatree.ParsePolicy(*policyF)
	if err != nil {
		return err
	}
	for j := 0; j < t.N(); j++ {
		if m := placement.Mode(j); m != 0 && int(m) > len(caps) {
			return fmt.Errorf("replicatool: node %d uses mode %d, but -caps lists only %d capacities", j, m, len(caps))
		}
	}
	capOf := func(m uint8) int { return caps[m-1] }
	// CheckPlacement guards every argument, so malformed input yields
	// an error instead of tripping the flow engine's panic contract.
	if err := replicatree.CheckPlacement(t, placement, policy, capOf, cons); err != nil {
		return err
	}
	res, err := replicatree.EvalPlacement(t, placement, policy, capOf, cons)
	if err != nil {
		return err
	}
	maxLoad := 0
	for _, l := range res.Loads {
		if l > maxLoad {
			maxLoad = l
		}
	}
	constrained := ""
	if cons.Bounded() {
		constrained = " within QoS/bandwidth constraints"
	}
	fmt.Printf("valid under the %s policy%s: %d servers, %d requests served, max load %d\n",
		policy, constrained, placement.Count(), t.TotalRequests(), maxLoad)
	return nil
}
