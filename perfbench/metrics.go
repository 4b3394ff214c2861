package main

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric and its unit. The lists below must match
// BENCHMARK.json at the repository root (TestMetricsMatchBenchmarkJSON).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics an untraced run prints, on every workload.
// "op" is the workload's unit of work: one drift request on the serving
// workloads, one Figure 8 + Figure 10 sweep on paper-sweep.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"cold_load_ms", "ms", "lower"},
	{"op_p50_ms", "ms", "lower"},
	{"op_tail_ms", "ms", "lower"},
	{"op_rate_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics a traced run prints, on every workload. A
// layer the workload does not exercise reports 0.
var perLayer = []metricDef{
	{"tree.read_instance_ms", "ms", "lower"},
	{"tree.set_demand_us", "us", "lower"},
	{"tree.eval_ms", "ms", "lower"},
	{"core.mincost.cold_ms", "ms", "lower"},
	{"core.mincost.solve_ms.p50", "ms", "lower"},
	{"core.mincost.solve_ms.tail", "ms", "lower"},
	{"core.mincost.recomputed", "count", "lower"},
	{"core.mincost.merge_cells", "count", "lower"},
	{"core.mincost.rows_compressed", "count", "higher"},
	{"core.mincost.fold_replayed", "count", "lower"},
	{"core.power.solve_ms.p50", "ms", "lower"},
	{"core.power.merge_cells", "count", "lower"},
	{"core.power.root_cells_repriced", "count", "lower"},
	{"core.power.front_len", "count", "lower"},
	{"core.power.best_us", "us", "lower"},
	{"greedy.power_sweep_ms", "ms", "lower"},
	{"exper.tree_self_ms", "ms", "lower"},
	{"serve.load_ms", "ms", "lower"},
	{"serve.drift_ms", "ms", "lower"},
	{"serve.tick_took_ms", "ms", "lower"},
	{"serve.queue_wait_ms", "ms", "lower"},
	{"serve.coalesce", "req/tick", "higher"},
	{"serve.wal_fsync_ms", "ms", "lower"},
	{"serve.snapshot_encode_ms", "ms", "lower"},
	{"serve.eval_ms", "ms", "lower"},
	{"serve.shed", "count", "lower"},
	{"serve.tick_failures", "count", "lower"},
	{"loadgen.late_tail_ms", "ms", "lower"},
	{"loadgen.placement_ms.p50", "ms", "lower"},
	{"loadgen.placement_ms.tail", "ms", "lower"},
	{"loadgen.eval_ms.p50", "ms", "lower"},
	{"loadgen.eval_ms.tail", "ms", "lower"},
}

// layerMoves records, for each per-layer metric, the end-to-end metric
// and workload it should move. It is written into every trace file.
var layerMoves = map[string]string{
	"tree.read_instance_ms":          "cold_load_ms and setup_s on fresh-1e5, chain-1e4",
	"tree.set_demand_us":             "op_* on fresh-1e5, chain-1e4",
	"tree.eval_ms":                   "loadgen.eval_ms and op_* on fresh-1e5",
	"core.mincost.cold_ms":           "cold_load_ms on fresh-1e5, chain-1e4",
	"core.mincost.solve_ms.p50":      "op_p50_ms on fresh-1e5, chain-1e4",
	"core.mincost.solve_ms.tail":     "op_tail_ms on fresh-1e5, chain-1e4",
	"core.mincost.recomputed":        "op_* on fresh-1e5",
	"core.mincost.merge_cells":       "op_* on chain-1e4",
	"core.mincost.rows_compressed":   "op_* on chain-1e4",
	"core.mincost.fold_replayed":     "op_* on chain-1e4",
	"core.power.solve_ms.p50":        "op_* and op_rate_per_s on paper-sweep",
	"core.power.merge_cells":         "op_* on paper-sweep",
	"core.power.root_cells_repriced": "op_* on paper-sweep",
	"core.power.front_len":           "op_* on paper-sweep",
	"core.power.best_us":             "op_* on paper-sweep",
	"greedy.power_sweep_ms":          "op_* on paper-sweep",
	"exper.tree_self_ms":             "op_* on paper-sweep",
	"serve.load_ms":                  "cold_load_ms and setup_s on fresh-1e5, chain-1e4",
	"serve.drift_ms":                 "op_* and op_rate_per_s on fresh-1e5, chain-1e4",
	"serve.tick_took_ms":             "op_* and op_rate_per_s on fresh-1e5, chain-1e4",
	"serve.queue_wait_ms":            "op_* on fresh-1e5, chain-1e4",
	"serve.coalesce":                 "op_rate_per_s on fresh-1e5, chain-1e4",
	"serve.wal_fsync_ms":             "op_* and op_rate_per_s on fresh-1e5, chain-1e4",
	"serve.snapshot_encode_ms":       "loadgen.placement_ms and op_* on fresh-1e5",
	"serve.eval_ms":                  "loadgen.eval_ms and op_* on fresh-1e5",
	"serve.shed":                     "failed on fresh-1e5, chain-1e4",
	"serve.tick_failures":            "failed on fresh-1e5, chain-1e4",
	"loadgen.late_tail_ms":           "op_tail_ms on fresh-1e5, chain-1e4 (generator lag, not daemon time)",
	"loadgen.placement_ms.p50":       "op_* on fresh-1e5 (reads share the CPUs with drifts)",
	"loadgen.placement_ms.tail":      "op_tail_ms on fresh-1e5",
	"loadgen.eval_ms.p50":            "op_* on fresh-1e5 (eval holds the run lock)",
	"loadgen.eval_ms.tail":           "op_tail_ms on fresh-1e5",
}

// fill returns a metric map holding exactly defs, with values from vals
// (absent names report 0).
func fill(defs []metricDef, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return out
}
