package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"replicatree/internal/core"
	"replicatree/internal/cost"
	"replicatree/internal/power"
	"replicatree/internal/rng"
	"replicatree/internal/tree"
)

// ServerOptions configures a Server.
type ServerOptions struct {
	// DataDir, when non-empty, enables snapshot persistence: POST
	// /instances/{id}/snapshot writes there, RestoreAll loads from
	// there, and the daemon snapshots every session there on shutdown.
	DataDir string
	// Workers is the default per-session solver worker count for load
	// requests that do not specify one.
	Workers int
	// MaxNodes caps generated and loaded instance sizes (0 = the
	// 5e6 default). Body size is capped proportionally.
	MaxNodes int
	// TickTimeout is applied as Options.TickTimeout to every loaded
	// and restored session (0 = no per-tick deadline).
	TickTimeout time.Duration
	// MaxInflight is applied as Options.MaxInflight to every loaded
	// and restored session (0 = DefaultMaxInflight).
	MaxInflight int
}

const defaultMaxNodes = 5_000_000

// Server hosts named sessions behind the HTTP/JSON API. See the
// package documentation for the endpoint list and consistency model.
type Server struct {
	opts ServerOptions

	mu       sync.RWMutex
	sessions map[string]*Session

	autoID  atomic.Uint64
	httpMet *httpMetrics
	handler http.Handler
}

// NewServer returns a server with no sessions loaded.
func NewServer(opts ServerOptions) *Server {
	if opts.MaxNodes <= 0 {
		opts.MaxNodes = defaultMaxNodes
	}
	s := &Server{
		opts:     opts,
		sessions: make(map[string]*Session),
		httpMet:  newHTTPMetrics(),
	}
	s.handler = s.buildHandler()
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.handler }

// Session returns the named session, or nil.
func (s *Server) Session(id string) *Session {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sessions[id]
}

// add inserts a session, failing on a duplicate id.
func (s *Server) add(sess *Session) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.sessions[sess.id]; ok {
		return fmt.Errorf("serve: instance %q already loaded", sess.id)
	}
	s.sessions[sess.id] = sess
	return nil
}

// remove deletes a session, reporting whether it existed.
func (s *Server) remove(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.sessions[id]; !ok {
		return false
	}
	delete(s.sessions, id)
	return true
}

// all returns the sessions sorted by id.
func (s *Server) all() []*Session {
	s.mu.RLock()
	out := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		out = append(out, sess)
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// SnapshotAll writes a snapshot of every loaded session to the data
// directory. It is what the daemon runs on graceful shutdown.
func (s *Server) SnapshotAll() error {
	if s.opts.DataDir == "" {
		return errors.New("serve: no data directory configured")
	}
	if err := os.MkdirAll(s.opts.DataDir, 0o755); err != nil {
		return err
	}
	var firstErr error
	for _, sess := range s.all() {
		if _, err := saveSnapshot(s.opts.DataDir, sess); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// RestoreAll loads every snapshot from the data directory, returning
// how many sessions were restored. Missing directory is not an error
// (first boot).
func (s *Server) RestoreAll() (int, error) {
	if s.opts.DataDir == "" {
		return 0, nil
	}
	if _, err := os.Stat(s.opts.DataDir); os.IsNotExist(err) {
		return 0, nil
	}
	sessions, err := loadSnapshots(s.opts.DataDir, s.sessionDefaults)
	if err != nil {
		return 0, err
	}
	for _, sess := range sessions {
		if err := s.add(sess); err != nil {
			return 0, err
		}
	}
	return len(sessions), nil
}

// sessionDefaults applies the server's operational settings to a
// loaded or restored session's Options.
func (s *Server) sessionDefaults(o *Options) {
	o.TickTimeout = s.opts.TickTimeout
	o.MaxInflight = s.opts.MaxInflight
}

var idPattern = regexp.MustCompile(`^[A-Za-z0-9_-]{1,64}$`)

// validateID enforces the path- and filename-safe instance id alphabet.
func validateID(id string) error {
	if !idPattern.MatchString(id) {
		return fmt.Errorf("serve: instance id must match %s", idPattern)
	}
	return nil
}

// ---- wire types ----

// genRequest asks the server to generate the instance tree itself
// (deterministic in seed), instead of shipping it inline.
type genRequest struct {
	Nodes      int     `json:"nodes"`
	Shape      string  `json:"shape"` // fat | high | power | scale (default fat)
	Seed       uint64  `json:"seed"`
	ReqMax     int     `json:"reqmax,omitempty"`
	ClientProb float64 `json:"clientprob,omitempty"`
}

// loadRequest is the POST /instances body. Exactly one of Instance
// (inline instance JSON, internal/tree format) and Gen must be set.
type loadRequest struct {
	ID            string          `json:"id,omitempty"`
	W             int             `json:"w"`
	Cost          costJSON        `json:"cost"`
	Power         *powerJSON      `json:"power,omitempty"`
	Chain         bool            `json:"chain,omitempty"`
	Workers       *int            `json:"workers,omitempty"`
	Instance      json.RawMessage `json:"instance,omitempty"`
	Gen           *genRequest     `json:"gen,omitempty"`
	Existing      []int           `json:"existing,omitempty"`
	PowerExisting []int           `json:"power_existing,omitempty"`
}

// driftRequest is the POST /instances/{id}/drift body.
type driftRequest struct {
	Edits  []Edit  `json:"edits,omitempty"`
	Redraw *Redraw `json:"redraw,omitempty"`
}

// infoResponse summarises a session for listing and load responses.
type infoResponse struct {
	ID          string  `json:"id"`
	Nodes       int     `json:"nodes"`
	Clients     int     `json:"clients"`
	Requests    int     `json:"requests"`
	Tick        uint64  `json:"tick"`
	Servers     int     `json:"servers"`
	Cost        float64 `json:"cost"`
	Power       bool    `json:"power"`
	Constrained bool    `json:"constrained"`
	Chain       bool    `json:"chain"`
	W           int     `json:"w"`
	LastErr     string  `json:"last_err,omitempty"`
}

func (s *Server) info(sess *Session) infoResponse {
	sn := sess.Snapshot()
	info := infoResponse{
		ID:          sess.id,
		Nodes:       sess.t.N(),
		Clients:     sess.t.ClientCount(),
		Requests:    sess.t.TotalRequests(),
		Power:       sess.pdp != nil,
		Constrained: sess.Constrained(),
		Chain:       sess.opts.Chain,
		W:           sess.opts.W,
		LastErr:     sess.LastErr(),
	}
	if sn != nil {
		info.Tick = sn.Tick
		info.Servers = sn.Servers
		info.Cost = sn.Cost
	}
	return info
}

// ---- HTTP plumbing ----

// statusRecorder captures the response code for the request counter.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// httpError is an error with an HTTP status.
type httpError struct {
	code int
	err  error
}

func (e *httpError) Error() string { return e.err.Error() }
func (e *httpError) Unwrap() error { return e.err }

func errCode(code int, err error) *httpError { return &httpError{code: code, err: err} }

func errf(code int, format string, args ...any) *httpError {
	return &httpError{code: code, err: fmt.Errorf(format, args...)}
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// handle adapts an error-returning handler: errors map to a JSON
// {"error": ...} body with the appropriate status, and panics — which
// would otherwise kill the connection with locks already released via
// defers — map to 500.
func (s *Server) handle(fn func(w http.ResponseWriter, r *http.Request) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				writeJSON(w, http.StatusInternalServerError,
					map[string]string{"error": fmt.Sprintf("internal panic: %v", p)})
			}
		}()
		if err := fn(w, r); err != nil {
			code := http.StatusInternalServerError
			var he *httpError
			switch {
			case errors.As(err, &he):
				code = he.code
			case errors.Is(err, ErrBadDrift):
				code = http.StatusBadRequest
			case errors.Is(err, core.ErrInfeasible):
				code = http.StatusUnprocessableEntity
			case errors.Is(err, ErrOverloaded):
				code = http.StatusTooManyRequests
			case errors.Is(err, ErrClosed):
				code = http.StatusGone
			case errors.Is(err, context.DeadlineExceeded):
				// The tick's re-solve overran its deadline and aborted;
				// the next tick repairs and retries the solve.
				code = http.StatusServiceUnavailable
			}
			if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
				w.Header().Set("Retry-After", "1")
			}
			writeJSON(w, code, map[string]string{"error": err.Error()})
		}
	}
}

// buildHandler wires the routes, the recovery wrapper and the request
// counter.
func (s *Server) buildHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.writeMetrics(w)
	})
	mux.Handle("POST /instances", s.handle(s.handleLoad))
	mux.Handle("GET /instances", s.handle(s.handleList))
	mux.Handle("GET /instances/{id}", s.handle(s.handleInfo))
	mux.Handle("DELETE /instances/{id}", s.handle(s.handleDelete))
	mux.Handle("POST /instances/{id}/drift", s.handle(s.handleDrift))
	mux.Handle("GET /instances/{id}/placement", s.handle(s.handlePlacement))
	mux.Handle("GET /instances/{id}/front", s.handle(s.handleFront))
	mux.Handle("GET /instances/{id}/eval", s.handle(s.handleEval))
	mux.Handle("POST /instances/{id}/snapshot", s.handle(s.handleSnapshot))

	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		mux.ServeHTTP(rec, r)
		pattern := r.Pattern
		if pattern == "" {
			pattern = "unmatched"
		}
		s.httpMet.inc(r.Method, pattern, rec.code)
	})
}

// session resolves the {id} path value or fails with 404.
func (s *Server) session(r *http.Request) (*Session, error) {
	id := r.PathValue("id")
	sess := s.Session(id)
	if sess == nil {
		return nil, errf(http.StatusNotFound, "serve: no instance %q", id)
	}
	return sess, nil
}

// decodeBody strictly decodes a JSON request body into v. The
// ResponseWriter is handed to MaxBytesReader so an over-limit body
// also closes the connection instead of letting the client keep
// streaming into a dead request.
func decodeBody(w http.ResponseWriter, r *http.Request, v any, limit int64) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return errf(http.StatusRequestEntityTooLarge, "serve: request body exceeds %d bytes", tooBig.Limit)
		}
		return errf(http.StatusBadRequest, "serve: decoding request: %v", err)
	}
	return nil
}

func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) error {
	var req loadRequest
	// ~64 bytes of JSON per node is generous for the instance format.
	if err := decodeBody(w, r, &req, int64(s.opts.MaxNodes)*64+1<<20); err != nil {
		return err
	}
	if (req.Instance == nil) == (req.Gen == nil) {
		return errf(http.StatusBadRequest, "serve: exactly one of instance and gen must be set")
	}

	opts := Options{
		W:     req.W,
		Cost:  cost.Simple{Create: req.Cost.Create, Delete: req.Cost.Delete},
		Chain: req.Chain,
	}
	opts.Workers = s.opts.Workers
	if req.Workers != nil {
		// Each of up to three solvers starts this many pool goroutines
		// and sizes this many arenas, so bound it before building any.
		if n, hi := *req.Workers, 4*runtime.GOMAXPROCS(0); n < 0 || n > hi {
			return errf(http.StatusBadRequest, "serve: workers %d out of [0,%d]", n, hi)
		}
		opts.Workers = *req.Workers
	}
	s.sessionDefaults(&opts)
	if req.Power != nil {
		pm, err := power.New(req.Power.Caps, req.Power.Static, req.Power.Alpha)
		if err != nil {
			return errCode(http.StatusBadRequest, err)
		}
		opts.Power = &pm
		opts.PowerChange = req.Power.Change
	}

	var t *tree.Tree
	var cons *tree.Constraints
	switch {
	case req.Gen != nil:
		g := req.Gen
		if g.Nodes <= 0 || g.Nodes > s.opts.MaxNodes {
			return errf(http.StatusBadRequest, "serve: gen nodes %d out of [1,%d]", g.Nodes, s.opts.MaxNodes)
		}
		var cfg tree.GenConfig
		switch g.Shape {
		case "", "fat":
			cfg = tree.FatConfig(g.Nodes)
		case "high":
			cfg = tree.HighConfig(g.Nodes)
		case "power":
			cfg = tree.PowerConfig(g.Nodes)
		case "scale":
			cfg = tree.ScalePreset(g.Nodes)
		default:
			return errf(http.StatusBadRequest, "serve: unknown gen shape %q", g.Shape)
		}
		if g.ReqMax > 0 {
			cfg.ReqMax = g.ReqMax
		}
		if g.ClientProb > 0 {
			cfg.ClientProb = g.ClientProb
		}
		var err error
		t, err = tree.Generate(cfg, rng.New(g.Seed))
		if err != nil {
			return errCode(http.StatusBadRequest, err)
		}
		opts.Gen = &cfg
	default:
		var err error
		t, cons, err = tree.ReadInstanceJSON(bytes.NewReader(req.Instance))
		if err != nil {
			return errCode(http.StatusBadRequest, err)
		}
		if t.N() > s.opts.MaxNodes {
			return errf(http.StatusBadRequest, "serve: instance has %d nodes, cap is %d", t.N(), s.opts.MaxNodes)
		}
	}

	id := req.ID
	if id == "" {
		id = fmt.Sprintf("i%d", s.autoID.Add(1))
	}
	if err := validateID(id); err != nil {
		return errCode(http.StatusBadRequest, err)
	}
	ex, err := replicasFromModes(req.Existing, t.N(), "existing set")
	if err != nil {
		return errCode(http.StatusBadRequest, err)
	}
	pex, err := replicasFromModes(req.PowerExisting, t.N(), "power existing set")
	if err != nil {
		return errCode(http.StatusBadRequest, err)
	}

	sess, err := NewSession(id, t, cons, opts, ex, pex, 0)
	if err != nil {
		if errors.Is(err, core.ErrInfeasible) {
			return errCode(http.StatusUnprocessableEntity, err)
		}
		return errCode(http.StatusBadRequest, err)
	}
	if err := s.add(sess); err != nil {
		sess.Close()
		return errCode(http.StatusConflict, err)
	}
	if s.opts.DataDir != "" {
		// Durability starts at load: write the base snapshot and attach
		// the drift journal before acknowledging, so a crash after the
		// 201 can always recover the instance (snapshot) and every
		// subsequently acknowledged drift (journal replay on top).
		if err := s.persistNew(sess); err != nil {
			s.remove(sess.id)
			sess.Close()
			return fmt.Errorf("serve: persisting new instance: %w", err)
		}
	}
	writeJSON(w, http.StatusCreated, s.info(sess))
	return nil
}

// persistNew writes a fresh session's base snapshot and attaches its
// (empty) drift journal.
func (s *Server) persistNew(sess *Session) error {
	if err := os.MkdirAll(s.opts.DataDir, 0o755); err != nil {
		return err
	}
	if _, err := saveSnapshot(s.opts.DataDir, sess); err != nil {
		return err
	}
	w, err := openWAL(walPath(s.opts.DataDir, sess.id), 0)
	if err != nil {
		return err
	}
	sess.attachWAL(w)
	return nil
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) error {
	sessions := s.all()
	infos := make([]infoResponse, len(sessions))
	for i, sess := range sessions {
		infos[i] = s.info(sess)
	}
	writeJSON(w, http.StatusOK, map[string]any{"instances": infos})
	return nil
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) error {
	sess, err := s.session(r)
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, s.info(sess))
	return nil
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	sess := s.Session(id)
	if sess == nil || !s.remove(id) {
		return errf(http.StatusNotFound, "serve: no instance %q", id)
	}
	// Close aborts any in-flight tick at its next solver checkpoint
	// (its waiters get ErrClosed) and releases the session's journal
	// handle and worker pools before we respond.
	sess.Close()
	if s.opts.DataDir != "" {
		// Best-effort: stale state must not resurrect the instance on
		// the next restore.
		os.Remove(snapshotPath(s.opts.DataDir, id))
		os.Remove(walPath(s.opts.DataDir, id))
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
	return nil
}

func (s *Server) handleDrift(w http.ResponseWriter, r *http.Request) error {
	sess, err := s.session(r)
	if err != nil {
		return err
	}
	var req driftRequest
	if err := decodeBody(w, r, &req, 64<<20); err != nil {
		return err
	}
	var redraws []Redraw
	if req.Redraw != nil {
		redraws = []Redraw{*req.Redraw}
	}
	res, err := sess.Drift(req.Edits, redraws)
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, res)
	return nil
}

func (s *Server) handlePlacement(w http.ResponseWriter, r *http.Request) error {
	sess, err := s.session(r)
	if err != nil {
		return err
	}
	sn := sess.Snapshot()
	if sn == nil {
		return errf(http.StatusServiceUnavailable, "serve: no placement published yet")
	}
	writeJSON(w, http.StatusOK, sn)
	return nil
}

func (s *Server) handleFront(w http.ResponseWriter, r *http.Request) error {
	sess, err := s.session(r)
	if err != nil {
		return err
	}
	sn := sess.Snapshot()
	if sn == nil || sn.Power == nil {
		return errf(http.StatusNotFound, "serve: instance %q has no power model", sess.id)
	}
	writeJSON(w, http.StatusOK, map[string]any{"tick": sn.Tick, "front": sn.Power.Front})
	return nil
}

// parseIDList parses a comma-separated node id list query parameter.
func parseIDList(val string) ([]int, error) {
	if val == "" {
		return nil, nil
	}
	parts := strings.Split(val, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("serve: bad node id %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) error {
	sess, err := s.session(r)
	if err != nil {
		return err
	}
	q := r.URL.Query()
	policy := tree.PolicyClosest
	if p := q.Get("policy"); p != "" {
		policy, err = tree.ParsePolicy(p)
		if err != nil {
			return errCode(http.StatusBadRequest, err)
		}
	}
	down, err := parseIDList(q.Get("down"))
	if err != nil {
		return errCode(http.StatusBadRequest, err)
	}
	cuts, err := parseIDList(q.Get("cut"))
	if err != nil {
		return errCode(http.StatusBadRequest, err)
	}
	res, err := sess.Eval(policy, down, cuts)
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, res)
	return nil
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) error {
	sess, err := s.session(r)
	if err != nil {
		return err
	}
	if s.opts.DataDir == "" {
		return errf(http.StatusConflict, "serve: snapshots disabled: no data directory configured (run with -data)")
	}
	if err := os.MkdirAll(s.opts.DataDir, 0o755); err != nil {
		return err
	}
	path, err := saveSnapshot(s.opts.DataDir, sess)
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, map[string]string{"instance": sess.id, "path": path})
	return nil
}
