package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"replicatree/internal/tree"
)

// doJSON issues one request against the test server and decodes the
// JSON response into out (when non-nil), returning the status code.
func doJSON(tb testing.TB, ts *httptest.Server, method, path string, body any, out any) int {
	tb.Helper()
	var rd io.Reader
	switch b := body.(type) {
	case nil:
	case string:
		rd = strings.NewReader(b)
	default:
		buf, err := json.Marshal(b)
		if err != nil {
			tb.Fatalf("marshal: %v", err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		tb.Fatalf("request: %v", err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		tb.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		tb.Fatalf("read body: %v", err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			tb.Fatalf("%s %s: decoding %q: %v", method, path, data, err)
		}
	}
	return resp.StatusCode
}

func newTestServer(tb testing.TB, opts ServerOptions) *httptest.Server {
	tb.Helper()
	ts := httptest.NewServer(NewServer(opts).Handler())
	tb.Cleanup(ts.Close)
	return ts
}

func TestHTTPLifecycle(t *testing.T) {
	ts := newTestServer(t, ServerOptions{})

	var info infoResponse
	code := doJSON(t, ts, "POST", "/instances", map[string]any{
		"id": "t1", "w": 10, "cost": map[string]float64{"create": 0.1, "delete": 0.01},
		"gen": map[string]any{"nodes": 300, "shape": "fat", "seed": 7},
	}, &info)
	if code != http.StatusCreated {
		t.Fatalf("load: status %d", code)
	}
	if info.ID != "t1" || info.Nodes != 300 || info.Tick != 0 || info.Servers == 0 {
		t.Fatalf("load response %+v", info)
	}

	var list struct {
		Instances []infoResponse `json:"instances"`
	}
	if code := doJSON(t, ts, "GET", "/instances", nil, &list); code != http.StatusOK || len(list.Instances) != 1 {
		t.Fatalf("list: status %d, %d instances", code, len(list.Instances))
	}
	if code := doJSON(t, ts, "GET", "/instances/t1", nil, &info); code != http.StatusOK || info.ID != "t1" {
		t.Fatalf("info: status %d, id %q", code, info.ID)
	}

	// Find an editable slot from the placement snapshot's tree shape:
	// drift the first client of the generated tree via the API.
	var sn Snapshot
	if code := doJSON(t, ts, "GET", "/instances/t1/placement", nil, &sn); code != http.StatusOK || sn.Tick != 0 {
		t.Fatalf("placement: status %d, tick %d", code, sn.Tick)
	}

	var res TickResult
	code = doJSON(t, ts, "POST", "/instances/t1/drift", map[string]any{
		"redraw": map[string]any{"prob": 0.2, "seed": 42},
	}, &res)
	if code != http.StatusOK || res.Tick != 1 {
		t.Fatalf("drift: status %d, result %+v", code, res)
	}
	if code := doJSON(t, ts, "GET", "/instances/t1/placement", nil, &sn); code != http.StatusOK || sn.Tick != 1 {
		t.Fatalf("placement after drift: status %d, tick %d", code, sn.Tick)
	}

	var ev EvalResult
	if code := doJSON(t, ts, "GET", "/instances/t1/eval?policy=closest", nil, &ev); code != http.StatusOK {
		t.Fatalf("eval: status %d", code)
	}
	if ev.Unserved != 0 || ev.Issued == 0 {
		t.Fatalf("eval result %+v", ev)
	}
	if code := doJSON(t, ts, "GET", "/instances/t1/eval?down=1,2", nil, &ev); code != http.StatusOK {
		t.Fatalf("masked eval: status %d", code)
	}
	if ev.DownNodes != 2 {
		t.Fatalf("masked eval %+v", ev)
	}

	// No power model loaded: the front is a 404.
	if code := doJSON(t, ts, "GET", "/instances/t1/front", nil, nil); code != http.StatusNotFound {
		t.Fatalf("front without power: status %d", code)
	}

	if code := doJSON(t, ts, "DELETE", "/instances/t1", nil, nil); code != http.StatusOK {
		t.Fatalf("delete: status %d", code)
	}
	if code := doJSON(t, ts, "GET", "/instances/t1", nil, nil); code != http.StatusNotFound {
		t.Fatalf("info after delete: status %d", code)
	}
}

func TestHTTPInlineInstanceAndFront(t *testing.T) {
	ts := newTestServer(t, ServerOptions{})

	tr, _ := genPowerTree(t, 23)
	cons := tree.NewConstraints(tr)
	cons.SetUniformQoS(tr, tr.Height()+2)
	var inst bytes.Buffer
	if err := tree.WriteInstanceJSON(&inst, tr, cons); err != nil {
		t.Fatalf("WriteInstanceJSON: %v", err)
	}

	var info infoResponse
	code := doJSON(t, ts, "POST", "/instances", map[string]any{
		"id": "p1", "w": 10, "cost": map[string]float64{"create": 0.1, "delete": 0.01},
		"power":    map[string]any{"caps": []int{5, 10}, "static": 0.5, "alpha": 2, "change": 0.05},
		"chain":    true,
		"instance": json.RawMessage(inst.Bytes()),
	}, &info)
	if code != http.StatusCreated {
		t.Fatalf("load: status %d", code)
	}
	if !info.Power || !info.Constrained {
		t.Fatalf("load response %+v: want power and constraints", info)
	}

	var front struct {
		Tick  uint64 `json:"tick"`
		Front []struct {
			Cost  float64 `json:"Cost"`
			Power float64 `json:"Power"`
		} `json:"front"`
	}
	if code := doJSON(t, ts, "GET", "/instances/p1/front", nil, &front); code != http.StatusOK {
		t.Fatalf("front: status %d", code)
	}
	if len(front.Front) == 0 {
		t.Fatalf("empty pareto front")
	}

	// An inline-loaded instance has no generator bounds: a bare redraw
	// must be rejected, an explicit-bounds one accepted.
	if code := doJSON(t, ts, "POST", "/instances/p1/drift", map[string]any{
		"redraw": map[string]any{"prob": 0.5, "seed": 1},
	}, nil); code != http.StatusBadRequest {
		t.Fatalf("bare redraw on inline instance: status %d", code)
	}
	var res TickResult
	if code := doJSON(t, ts, "POST", "/instances/p1/drift", map[string]any{
		"redraw": map[string]any{"prob": 0.5, "seed": 1, "reqmin": 1, "reqmax": 5},
	}, &res); code != http.StatusOK || res.Tick != 1 {
		t.Fatalf("redraw drift: status %d, %+v", code, res)
	}
}

// TestHTTPErrorPaths covers the handler rejection matrix, and — as the
// lock-leak audit — checks after every rejection that the session still
// ticks cleanly.
func TestHTTPErrorPaths(t *testing.T) {
	ts := newTestServer(t, ServerOptions{})

	load := map[string]any{
		"id": "e1", "w": 10, "cost": map[string]float64{"create": 0.1, "delete": 0.01},
		"gen": map[string]any{"nodes": 200, "shape": "fat", "seed": 3},
	}
	if code := doJSON(t, ts, "POST", "/instances", load, nil); code != http.StatusCreated {
		t.Fatalf("load: status %d", code)
	}

	cases := []struct {
		name   string
		method string
		path   string
		body   any
		want   int
	}{
		{"duplicate id", "POST", "/instances", load, http.StatusConflict},
		{"bad json", "POST", "/instances", `{"w": `, http.StatusBadRequest},
		{"unknown field", "POST", "/instances", `{"w": 10, "wat": 1}`, http.StatusBadRequest},
		{"instance and gen both unset", "POST", "/instances",
			map[string]any{"w": 10, "cost": map[string]float64{"create": 0.1}}, http.StatusBadRequest},
		{"bad shape", "POST", "/instances",
			map[string]any{"w": 10, "cost": map[string]float64{"create": 0.1},
				"gen": map[string]any{"nodes": 50, "shape": "blob"}}, http.StatusBadRequest},
		{"bad id", "POST", "/instances",
			map[string]any{"id": "a/b", "w": 10, "cost": map[string]float64{"create": 0.1},
				"gen": map[string]any{"nodes": 50}}, http.StatusBadRequest},
		{"infeasible", "POST", "/instances",
			map[string]any{"id": "inf", "w": 1, "cost": map[string]float64{"create": 0.1},
				"gen": map[string]any{"nodes": 50, "seed": 2, "reqmax": 6}}, http.StatusUnprocessableEntity},
		{"missing instance", "GET", "/instances/nope", nil, http.StatusNotFound},
		{"drift missing instance", "POST", "/instances/nope/drift", map[string]any{}, http.StatusNotFound},
		{"drift bad json", "POST", "/instances/e1/drift", `{`, http.StatusBadRequest},
		{"drift unknown field", "POST", "/instances/e1/drift", `{"editz": []}`, http.StatusBadRequest},
		{"drift bad node", "POST", "/instances/e1/drift",
			map[string]any{"edits": []map[string]int{{"node": 100000, "client": 0, "reqs": 1}}}, http.StatusBadRequest},
		{"drift bad reqs", "POST", "/instances/e1/drift",
			map[string]any{"edits": []map[string]int{{"node": 1, "client": 0, "reqs": -4}}}, http.StatusBadRequest},
		{"drift bad redraw prob", "POST", "/instances/e1/drift",
			map[string]any{"redraw": map[string]any{"prob": 2.0}}, http.StatusBadRequest},
		{"infeasible drift", "POST", "/instances/e1/drift",
			map[string]any{"edits": []map[string]int{{"node": firstClientNode(t, ts, "e1"), "client": 0, "reqs": 50}}},
			http.StatusUnprocessableEntity},
		{"eval bad policy", "GET", "/instances/e1/eval?policy=wat", nil, http.StatusBadRequest},
		{"eval bad id list", "GET", "/instances/e1/eval?down=1,x", nil, http.StatusBadRequest},
		{"eval out of range", "GET", "/instances/e1/eval?down=99999", nil, http.StatusBadRequest},
		{"snapshot disabled", "POST", "/instances/e1/snapshot", nil, http.StatusConflict},
		{"delete missing", "DELETE", "/instances/nope", nil, http.StatusNotFound},
		{"unmatched route", "GET", "/wat", nil, http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var errBody struct {
				Error string `json:"error"`
			}
			out := any(&errBody)
			if tc.name == "unmatched route" {
				out = nil // ServeMux's own 404 is not JSON
			}
			if code := doJSON(t, ts, tc.method, tc.path, tc.body, out); code != tc.want {
				t.Fatalf("status %d, want %d (error %q)", code, tc.want, errBody.Error)
			}

			// Lock-leak audit: whatever just got rejected, the session
			// must still accept a clean drift immediately (a leaked run
			// or batch lock would deadlock or error here). The
			// infeasible case left a poisoned demand behind; the repair
			// edit below resets it either way.
			var res TickResult
			if code := doJSON(t, ts, "POST", "/instances/e1/drift", map[string]any{
				"edits": []map[string]int{{"node": firstClientNode(t, ts, "e1"), "client": 0, "reqs": 1}},
			}, &res); code != http.StatusOK {
				t.Fatalf("clean drift after rejection: status %d", code)
			}
		})
	}
}

// firstClientNode finds a node with an attached client by probing
// drifts over the API: it walks node ids upward until an edit on
// (node, 0) validates. The probe drift sets that client's demand to 1.
func firstClientNode(tb testing.TB, ts *httptest.Server, id string) int {
	tb.Helper()
	for node := 0; node < 100000; node++ {
		code := doJSON(tb, ts, "POST", "/instances/"+id+"/drift", map[string]any{
			"edits": []map[string]int{{"node": node, "client": 0, "reqs": 1}},
		}, nil)
		if code == http.StatusOK {
			return node
		}
	}
	tb.Fatalf("no client node found")
	return -1
}

func TestHTTPMetrics(t *testing.T) {
	ts := newTestServer(t, ServerOptions{})
	if code := doJSON(t, ts, "POST", "/instances", map[string]any{
		"id": "m1", "w": 10, "cost": map[string]float64{"create": 0.1, "delete": 0.01},
		"gen": map[string]any{"nodes": 150, "shape": "high", "seed": 5},
	}, nil); code != http.StatusCreated {
		t.Fatalf("load: status %d", code)
	}
	for i := 0; i < 3; i++ {
		if code := doJSON(t, ts, "POST", "/instances/m1/drift", map[string]any{
			"redraw": map[string]any{"prob": 0.3, "seed": i},
		}, nil); code != http.StatusOK {
			t.Fatalf("drift %d: status %d", i, code)
		}
	}
	if code := doJSON(t, ts, "GET", "/instances/m1/eval", nil, nil); code != http.StatusOK {
		t.Fatalf("eval: status %d", code)
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		"replicaserved_instances 1",
		`replicaserved_ticks_total{instance="m1"} 3`,
		`replicaserved_drift_requests_total{instance="m1"} 3`,
		`replicaserved_evals_total{instance="m1"} 1`,
		`replicaserved_tables_recomputed_total{instance="m1",solver="mincost"}`,
		`replicaserved_tick_seconds_bucket{instance="m1",le="+Inf"} 3`,
		`replicaserved_tick_seconds_count{instance="m1"} 3`,
		`replicaserved_tick{instance="m1"} 3`,
		`replicaserved_servers{instance="m1",solver="mincost"}`,
		`replicaserved_http_requests_total{method="POST",path="POST /instances/{id}/drift",code="200"} 3`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("metrics body:\n%s", text)
	}
}

func TestHTTPGenShapes(t *testing.T) {
	ts := newTestServer(t, ServerOptions{})
	for i, shape := range []string{"fat", "high", "power", "scale"} {
		id := fmt.Sprintf("s%d", i)
		if code := doJSON(t, ts, "POST", "/instances", map[string]any{
			"id": id, "w": 10, "cost": map[string]float64{"create": 0.1, "delete": 0.01},
			"gen": map[string]any{"nodes": 100, "shape": shape, "seed": 1},
		}, nil); code != http.StatusCreated {
			t.Errorf("shape %q: status %d", shape, code)
		}
	}
}

func TestMaxNodesCap(t *testing.T) {
	ts := newTestServer(t, ServerOptions{MaxNodes: 100})
	if code := doJSON(t, ts, "POST", "/instances", map[string]any{
		"w": 10, "cost": map[string]float64{"create": 0.1, "delete": 0.01},
		"gen": map[string]any{"nodes": 101, "seed": 1},
	}, nil); code != http.StatusBadRequest {
		t.Fatalf("oversized gen: status %d", code)
	}
	var info infoResponse
	if code := doJSON(t, ts, "POST", "/instances", map[string]any{
		"w": 10, "cost": map[string]float64{"create": 0.1, "delete": 0.01},
		"gen": map[string]any{"nodes": 100, "seed": 1},
	}, &info); code != http.StatusCreated {
		t.Fatalf("at-cap gen: status %d", code)
	}
	if info.ID != "i1" {
		t.Fatalf("auto id %q, want i1", info.ID)
	}
}

// TestWorkersBound checks that POST /instances rejects a worker count
// outside [0, 4*GOMAXPROCS] with a 400 before building anything: no
// instance appears, so no solver pool is ever sized from the value.
func TestWorkersBound(t *testing.T) {
	ts := newTestServer(t, ServerOptions{})
	for i, workers := range []int{4*runtime.GOMAXPROCS(0) + 1, -1} {
		if code := doJSON(t, ts, "POST", "/instances", map[string]any{
			"id": fmt.Sprintf("w%d", i), "w": 10, "workers": workers,
			"cost": map[string]float64{"create": 0.1, "delete": 0.01},
			"gen":  map[string]any{"nodes": 50, "seed": 1},
		}, nil); code != http.StatusBadRequest {
			t.Fatalf("workers %d: status %d, want 400", workers, code)
		}
	}
	var list struct {
		Instances []infoResponse `json:"instances"`
	}
	if code := doJSON(t, ts, "GET", "/instances", nil, &list); code != http.StatusOK || len(list.Instances) != 0 {
		t.Fatalf("after rejected loads: status %d, instances %v", code, list.Instances)
	}
}
