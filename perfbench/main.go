// Command perfbench is the repository's benchmark. It runs one workload
// against the program built from source, checks that the program's
// outputs are correct, and prints one JSON result line:
//
//	perfbench --workload fresh-1e5 --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//   - fresh-1e5: the replicaserved daemon (WAL on, -workers = CPUs)
//     serving a 10^5-node ScalePreset instance, MinCost only, without
//     chaining; an open loop of 8-edit drifts, GET /placement and GET
//     /eval, alternating with a closed loop of drifts.
//   - chain-1e4: the same daemon on a 10^4-node instance with chain=true
//     (each tick's placement is the next tick's pre-existing set); an
//     open loop of drifts only, alternating with a closed loop of drifts.
//   - paper-sweep: exper.RunExp3 for the paper's Figures 8 and 10, in
//     process, with workers = CPUs.
//
// With --trace 0 it prints the end-to-end metrics, with --trace 1 the
// per-layer metrics, and writes the recorded spans to a trace file.
// run.sh builds this command and the daemon and then runs it; see
// README.md in this directory for the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// env is the configuration of one run.
type env struct {
	workload string
	seed     uint64
	seconds  int
	tr       *tracer // nil in untraced runs
	bin      string  // replicaserved binary
	out      string  // directory for data, trace and result files
	nproc    int
}

// result is the JSON line a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var e env
	var trace int
	flag.StringVar(&e.workload, "workload", "", "workload name: fresh-1e5, chain-1e4 or paper-sweep")
	flag.Uint64Var(&e.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&e.seconds, "seconds", 30, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics")
	flag.StringVar(&e.bin, "bin", ".bench_build/replicaserved", "replicaserved binary")
	flag.StringVar(&e.out, "out", ".bench_build/out", "directory for data, trace and result files")
	flag.Parse()
	if flag.NArg() > 0 || e.seconds < 1 || (trace != 0 && trace != 1) {
		flag.Usage()
		return fmt.Errorf("bad arguments")
	}
	e.nproc = runtime.NumCPU()
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		return err
	}
	if trace == 1 {
		e.tr = newTracer()
	}

	var out *outcome
	var err error
	if sp, ok := serveSpecs[e.workload]; ok {
		if _, err := os.Stat(e.bin); err != nil {
			return fmt.Errorf("daemon binary: %w", err)
		}
		out, err = runServe(&e, sp)
	} else if e.workload == "paper-sweep" {
		out, err = runSweep(&e)
	} else {
		return fmt.Errorf("unknown workload %q", e.workload)
	}
	if err != nil {
		return err
	}

	e2e := fill(endToEnd, out.e2e)
	for _, d := range endToEnd {
		if v := out.e2e[d.name]; !(v > 0) {
			return fmt.Errorf("end-to-end metric %s measured %v", d.name, v)
		}
	}
	res := result{Correct: true, Attempted: out.attempted, Failed: out.failed, Metrics: e2e}
	last := filepath.Join(e.out, "e2e-"+e.workload+".json")
	if e.tr == nil {
		if err := writeJSON(last, e2e); err != nil {
			return err
		}
	} else {
		res.Metrics = fill(perLayer, out.layers)
		if err := writeTrace(&e, last, e2e); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// writeTrace writes the traced run's spans, layer summaries and tracing
// overhead: this run's end-to-end metrics minus those of the last
// untraced run of the workload, where one was recorded.
func writeTrace(e *env, lastPath string, traced map[string]metric) error {
	tf := traceFile{Workload: e.workload, Seed: e.seed, TracedE2E: traced, LayerToE2E: layerMoves}
	var untraced map[string]metric
	if b, err := os.ReadFile(lastPath); err == nil && json.Unmarshal(b, &untraced) == nil {
		tf.UntracedE2E = untraced
		tf.Overhead = map[string]float64{}
		names := make([]string, 0, len(traced))
		for name := range traced {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if u, ok := untraced[name]; ok {
				tf.Overhead[name] = traced[name].Value - u.Value
			}
		}
		tf.OverheadNote = "traced minus the last untraced run of this workload (possibly another seed)"
	} else {
		tf.OverheadNote = "no untraced run of this workload recorded yet; run one with --trace 0 first"
	}
	path := filepath.Join(e.out, fmt.Sprintf("trace-%s-%d.json", e.workload, e.seed))
	if err := e.tr.write(path, tf); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: trace written to %s\n", path)
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
