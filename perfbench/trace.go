package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the call. Parent is the index of the enclosing span (-1
// for none); spans of one request share Req.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is a
// valid, disabled tracer: every method is a no-op, so the untraced run
// pays one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 when disabled).
func (tr *tracer) begin(name string, parent int, req int64) int {
	if tr == nil {
		return -1
	}
	now := time.Since(tr.t0).Nanoseconds()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, span{Name: name, Start: now, End: -1, Parent: parent, Req: req})
	return len(tr.spans) - 1
}

// end closes span i and returns its duration.
func (tr *tracer) end(i int) time.Duration {
	if tr == nil || i < 0 {
		return 0
	}
	now := time.Since(tr.t0).Nanoseconds()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans[i].End = now
	return time.Duration(now - tr.spans[i].Start)
}

// layerSummary aggregates the spans of one name.
type layerSummary struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
	P50MS   float64 `json:"p50_ms"`
	TailMS  float64 `json:"tail_ms"`
	TailQ   float64 `json:"tail_quantile"`
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its direct children cover (overlapping children are
// merged so parallel children are not subtracted twice).
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		iv := make([][2]int64, 0, len(kids[i]))
		for _, k := range kids[i] {
			if spans[k].End < 0 {
				continue
			}
			iv = append(iv, [2]int64{max(spans[k].Start, s.Start), min(spans[k].End, s.End)})
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, curS, curE := int64(0), int64(0), int64(-1)
		for _, v := range iv {
			if v[1] <= v[0] {
				continue
			}
			if v[0] > curE {
				if curE > curS {
					covered += curE - curS
				}
				curS, curE = v[0], v[1]
			} else if v[1] > curE {
				curE = v[1]
			}
		}
		if curE > curS {
			covered += curE - curS
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// summarizeSpans groups closed spans by name.
func summarizeSpans(spans []span) map[string]layerSummary {
	self := selfTimes(spans)
	durs := map[string][]float64{}
	out := map[string]layerSummary{}
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		d := float64(s.End-s.Start) / 1e6
		durs[s.Name] = append(durs[s.Name], d)
		ls := out[s.Name]
		ls.Count++
		ls.TotalMS += d
		ls.SelfMS += float64(self[i]) / 1e6
		out[s.Name] = ls
	}
	for name, ds := range durs {
		sm := summarize(ds)
		ls := out[name]
		ls.P50MS, ls.TailMS, ls.TailQ = sm.p50, sm.tail, sm.tailQ
		out[name] = ls
	}
	return out
}

// traceFile is what a traced run writes at exit.
type traceFile struct {
	Workload string                  `json:"workload"`
	Seed     uint64                  `json:"seed"`
	Layers   map[string]layerSummary `json:"layers"`
	// Overhead compares this traced run's end-to-end metrics with the
	// untraced run of the same workload recorded in the same build
	// directory: traced minus untraced, per metric.
	Overhead     map[string]float64 `json:"tracing_overhead,omitempty"`
	OverheadNote string             `json:"tracing_overhead_note"`
	TracedE2E    map[string]metric  `json:"traced_end_to_end"`
	UntracedE2E  map[string]metric  `json:"untraced_end_to_end,omitempty"`
	LayerToE2E   map[string]string  `json:"layer_moves"`
	Spans        []span             `json:"spans"`
}

// write stores the trace as JSON at path.
func (tr *tracer) write(path string, tf traceFile) error {
	tr.mu.Lock()
	tf.Spans = tr.spans
	tr.mu.Unlock()
	tf.Layers = summarizeSpans(tf.Spans)
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
