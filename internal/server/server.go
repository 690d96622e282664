// Package server implements the strided daemon: an HTTP/JSON front end to
// the stride-profiling pipeline. It accepts profile uploads from many
// producers (a networked cmd/profmerge), aggregates them per (workload,
// config) with version tracking, and serves figure tables, classification
// decisions and prefetch-effectiveness metrics computed by the same
// memoised experiment sessions the CLI uses — figure responses are
// byte-identical to `experiments -figure N` output.
//
// The daemon is production-shaped: simulation-heavy requests run on a
// bounded worker gate with a bounded wait queue (full queue answers 429
// with Retry-After), every heavy request carries a timeout and the
// client-disconnect cancellation threaded down into the simulator's
// interrupt check, and shutdown drains in-flight requests.
//
// The wire contract — request/response bodies, the uniform error
// envelope, query-parameter semantics, the SSE plan protocol — lives in
// internal/api (documented in API.md) and is shared with internal/client;
// this package contains no endpoint body definitions of its own.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stridepf/internal/api"
	"stridepf/internal/core"
	"stridepf/internal/experiments"
	"stridepf/internal/machine"
	"stridepf/internal/obs"
	"stridepf/internal/profile"
	"stridepf/internal/workloads"
)

// Config parameterises the daemon.
type Config struct {
	// Experiments configures the sessions backing figure queries (machine
	// model, prefetch options, worker pool size). Its Workloads field sets
	// the default roster; requests narrow it with ?workloads=. Its Metrics
	// registry receives the prefetch-effectiveness reports of every
	// observed measurement cell and backs GET /obs/metrics; nil creates
	// one.
	Experiments experiments.Config
	// MaxInFlight bounds concurrently executing simulation-heavy requests
	// (figures, classification). Zero selects GOMAXPROCS.
	MaxInFlight int
	// MaxQueued bounds requests waiting for an execution slot; a request
	// arriving beyond the bound is refused with 429 and a Retry-After
	// hint. Zero selects 2*MaxInFlight.
	MaxQueued int
	// RequestTimeout bounds each simulation-heavy request; zero means
	// no timeout (client disconnect still cancels).
	RequestTimeout time.Duration
	// Plan configures the online PGO plan watchers (window decay, delta
	// history depth, SSE heartbeat, long-poll bound); see plan.go. The
	// zero value selects production defaults.
	Plan PlanConfig
	// Store backs the profile upload/download/classify endpoints; nil
	// creates an empty in-memory Store. The chaos harness injects a
	// fault-wrapped store here.
	Store ProfileStore
	// Gate admits simulation-heavy requests; nil creates the default
	// bounded slot gate sized by MaxInFlight/MaxQueued. The chaos harness
	// injects a fault-wrapped gate here.
	Gate Gate
	// Log receives request and lifecycle lines; nil uses log.Default().
	Log *log.Logger
}

func (c *Config) maxInFlight() int {
	if c.MaxInFlight > 0 {
		return c.MaxInFlight
	}
	return runtime.GOMAXPROCS(0)
}

func (c *Config) maxQueued() int {
	if c.MaxQueued > 0 {
		return c.MaxQueued
	}
	return 2 * c.maxInFlight()
}

// Server is the strided HTTP handler. Create with New; serve with any
// http.Server (it implements http.Handler); drain with Drain before exit.
type Server struct {
	cfg   Config
	store ProfileStore
	log   *log.Logger
	mux   *http.ServeMux
	start time.Time

	gate Gate // admission for heavy requests
	wg   sync.WaitGroup

	mu       sync.Mutex
	sessions map[string]*experiments.Session

	// plans holds the online PGO watchers; planSession classifies their
	// window snapshots (never memoised, so one shared session suffices).
	plans       *planHub
	planSession *experiments.Session

	served   atomic.Int64 // completed heavy requests
	rejected atomic.Int64 // 429 responses
}

// New builds a Server.
func New(cfg Config) *Server {
	if cfg.Experiments.Metrics == nil {
		cfg.Experiments.Metrics = obs.NewRegistry()
	}
	if cfg.Store == nil {
		cfg.Store = NewStore()
	}
	if cfg.Gate == nil {
		cfg.Gate = NewSlotGate(cfg.maxInFlight(), cfg.maxQueued())
	}
	lg := cfg.Log
	if lg == nil {
		lg = log.Default()
	}
	s := &Server{
		cfg:      cfg,
		store:    cfg.Store,
		log:      lg,
		mux:      http.NewServeMux(),
		start:    time.Now(),
		gate:     cfg.Gate,
		sessions: make(map[string]*experiments.Session),
		plans:    newPlanHub(),
	}
	s.planSession = s.session(s.defaultRoster())
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /obs/metrics", s.handleObsMetrics)
	s.mux.HandleFunc("GET /v1/figures", s.handleFigures)
	s.mux.HandleFunc("GET /v1/figure/{name}", s.heavy(s.handleFigure))
	s.mux.HandleFunc("GET /v1/profiles", s.handleProfileList)
	s.mux.HandleFunc("POST /v1/profiles/batch", s.handleProfileBatch)
	s.mux.HandleFunc("POST /v1/profiles/{workload}/{config}", s.handleProfileUpload)
	s.mux.HandleFunc("GET /v1/profiles/{workload}/{config}", s.handleProfileGet)
	s.mux.HandleFunc("GET /v1/classify/{workload}/{config}", s.heavy(s.handleClassify))
	// Plan endpoints are deliberately outside the heavy gate: a watch
	// stream is long-lived (it would pin a simulation slot for its whole
	// life), and ingest-side classification is an IR pass, not a
	// simulation.
	s.mux.HandleFunc("GET /v1/plan/watch", s.handlePlanWatch)
	s.mux.HandleFunc("GET /v1/plan/status", s.handlePlanStatus)
	s.mux.HandleFunc("POST /v1/plan/feedback", s.handlePlanFeedback)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Store exposes the profile aggregate store (tests and embedding).
func (s *Server) Store() ProfileStore { return s.store }

// Drain blocks until every in-flight heavy request finished or ctx
// expires. http.Server.Shutdown already waits for open connections; Drain
// additionally covers callers embedding the handler elsewhere.
func (s *Server) Drain(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// heavy wraps a simulation-heavy handler with the worker gate (admission,
// wait-queue bound), the request timeout, and in-flight tracking.
func (s *Server) heavy(h func(http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if err := s.gate.Acquire(r.Context()); err != nil {
			var busy *BusyError
			switch {
			case errors.As(err, &busy):
				s.rejected.Add(1)
				e := api.Errorf(http.StatusTooManyRequests, api.CodeBusy,
					"server busy: execution queue full")
				e.RetryAfter = busy.RetryAfter
				s.writeErr(w, e)
			case isTemporary(err):
				s.rejected.Add(1)
				e := api.Errorf(http.StatusServiceUnavailable, api.CodeUnavailable, "%v", err)
				e.RetryAfter = 1
				s.writeErr(w, e)
			}
			return // otherwise: client went away while queued
		}
		s.wg.Add(1)
		defer func() {
			s.gate.Release()
			s.wg.Done()
			s.served.Add(1)
		}()

		if s.cfg.RequestTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		h(w, r)
	}
}

// isTemporary reports whether err advertises itself as transient (the
// convention the chaos harness's injected faults follow).
func isTemporary(err error) bool {
	var t interface{ Temporary() bool }
	return errors.As(err, &t) && t.Temporary()
}

// session returns the memoised experiment session for a workload roster,
// creating it on first use. All sessions share the server's obs registry
// and machine/prefetch configuration.
func (s *Server) session(names []string) *experiments.Session {
	key := strings.Join(names, ",")
	s.mu.Lock()
	defer s.mu.Unlock()
	if sess, ok := s.sessions[key]; ok {
		return sess
	}
	cfg := s.cfg.Experiments
	cfg.Workloads = names
	sess := experiments.NewSession(cfg)
	s.sessions[key] = sess
	return sess
}

// defaultRoster is the workload selection when a request names none.
func (s *Server) defaultRoster() []string {
	if len(s.cfg.Experiments.Workloads) > 0 {
		return append([]string(nil), s.cfg.Experiments.Workloads...)
	}
	return workloads.Names()
}

// rosterSpec is the DecodeParams spec shared by roster-selecting
// endpoints.
func (s *Server) rosterSpec() api.ParamSpec {
	return api.ParamSpec{
		Workloads:        true,
		DefaultWorkloads: s.defaultRoster(),
		KnownWorkload:    func(n string) bool { return workloads.Get(n) != nil },
	}
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		s.log.Printf("server: write response: %v", err)
	}
}

// writeErr sends the uniform api.Error envelope. Every non-2xx response
// of every endpoint flows through here.
func (s *Server) writeErr(w http.ResponseWriter, e *api.Error) {
	if err := api.WriteError(w, e); err != nil {
		s.log.Printf("server: write error response: %v", err)
	}
}

// apiFromErr maps a pipeline error to the envelope: timeouts to 504,
// client-abandoned work to 499 (the nginx convention), everything else to
// a 500.
func apiFromErr(err error) *api.Error {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return api.Errorf(http.StatusGatewayTimeout, api.CodeTimeout, "%v", err)
	case errors.Is(err, context.Canceled), errors.Is(err, machine.ErrInterrupted):
		return api.Errorf(499, api.CodeCanceled, "%v", err)
	default:
		return api.Errorf(http.StatusInternalServerError, api.CodeInternal, "%v", err)
	}
}

// storeErr maps a store failure: transient errors answer 503 with a
// Retry-After hint, terminal ones the given status.
func storeErr(err error, status int, code string) *api.Error {
	if isTemporary(err) {
		e := api.Errorf(http.StatusServiceUnavailable, api.CodeUnavailable, "%v", err)
		e.RetryAfter = 1
		return e
	}
	return api.Errorf(status, code, "%v", err)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	inFlight, queued := -1, -1
	if st, ok := s.gate.(GateStats); ok {
		inFlight, queued = st.Stats()
	}
	s.writeJSON(w, http.StatusOK, api.Health{
		Status:        "ok",
		UptimeSeconds: int64(time.Since(s.start).Seconds()),
		InFlight:      inFlight,
		Queued:        queued,
		Served:        s.served.Load(),
		Rejected:      s.rejected.Load(),
		Profiles:      len(s.store.List()),
		Plans:         s.plans.count(),
	})
}

func (s *Server) handleObsMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := s.cfg.Experiments.Metrics.WriteJSON(w); err != nil {
		s.log.Printf("server: write metrics: %v", err)
	}
}

func (s *Server) handleFigures(w http.ResponseWriter, r *http.Request) {
	names := experiments.FigureNames()
	names = append(names[:len(names):len(names)], experiments.ExtraFigureNames()...)
	s.writeJSON(w, http.StatusOK, api.FigureList{
		Figures: names,
		Formats: []string{"text", "csv", "jsonl"},
	})
}

// handleFigure serves one figure table. The default text form is
// byte-identical to `experiments -figure <name>` output; format=csv
// matches `-csv`, and format=jsonl streams one JSON object per table row.
func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	spec := s.rosterSpec()
	spec.Formats = []string{"text", "csv", "jsonl"}
	p, aerr := api.DecodeParams(r.URL.Query(), spec)
	if aerr != nil {
		s.writeErr(w, aerr)
		return
	}
	sess := s.session(p.Workloads)
	// Mirror the CLI: precompute the figure's cells on the session's worker
	// pool, then assemble the table serially from the memoised cells. The
	// output is byte-identical either way; warming only buys parallelism.
	if jobs := s.cfg.Experiments.Jobs; jobs != 1 && name != "15" {
		sess.Warm(r.Context(), jobs, name)
	}
	switch p.Format {
	case "text", "csv":
		text, err := sess.FigureText(r.Context(), name, p.Format == "csv")
		if err != nil {
			e := apiFromErr(err)
			if strings.Contains(err.Error(), "unknown figure") {
				e = api.Errorf(http.StatusNotFound, api.CodeUnknownFigure, "%v", err)
			}
			s.writeErr(w, e)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, text)
	case "jsonl":
		s.streamFigureJSONL(w, r, sess, name)
	}
}

func (s *Server) streamFigureJSONL(w http.ResponseWriter, r *http.Request, sess *experiments.Session, name string) {
	t, err := sess.Figure(r.Context(), name)
	if err != nil {
		e := apiFromErr(err)
		if strings.Contains(err.Error(), "unknown figure") || strings.Contains(err.Error(), "figure 15") {
			e = api.Errorf(http.StatusNotFound, api.CodeUnknownFigure, "%v", err)
		}
		s.writeErr(w, e)
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	writeLine := func(v any) bool {
		if err := enc.Encode(v); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	if !writeLine(api.FigureJSONLHeader{Figure: name, Title: t.Title, Columns: t.Columns}) {
		return
	}
	for _, row := range t.Rows {
		jr := api.FigureJSONLRow{Benchmark: row.Name, Values: make([]*float64, len(row.Values))}
		for i, v := range row.Values {
			if v == v { // not NaN
				v := v
				jr.Values[i] = &v
			}
		}
		if !writeLine(jr) {
			return
		}
	}
}

func (s *Server) handleProfileList(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, api.ProfileList{Profiles: s.store.List()})
}

// handleProfileUpload accepts one codec-encoded profile shard and merges
// it into the (workload, config) aggregate. A non-empty Idempotency-Key
// header makes the upload safely retryable: if a previous attempt with the
// same key already merged, the recorded result is replayed (with an
// X-Idempotent-Replay: true header) instead of double-merging the shard.
func (s *Server) handleProfileUpload(w http.ResponseWriter, r *http.Request) {
	wname, cname := r.PathValue("workload"), r.PathValue("config")
	if workloads.Get(wname) == nil {
		s.writeErr(w, api.Errorf(http.StatusNotFound, api.CodeUnknownWorkload,
			"unknown workload %q", wname))
		return
	}
	prof, err := profile.DefaultCodec.Decode(http.MaxBytesReader(w, r.Body, 64<<20))
	if err != nil {
		s.writeErr(w, api.Errorf(http.StatusBadRequest, api.CodeBadRequest, "%v", err))
		return
	}
	info, replayed, err := s.commitShard(wname, cname, prof, r.Header.Get("Idempotency-Key"))
	if err != nil {
		// A non-transient failure means the shard is well-formed but
		// incompatible with the aggregate: conflict.
		s.writeErr(w, storeErr(err, http.StatusConflict, api.CodeConflict))
		return
	}
	if replayed {
		w.Header().Set("X-Idempotent-Replay", "true")
		s.log.Printf("server: profile %s/%s replayed idempotent upload (version %d)",
			wname, cname, info.Version)
	} else {
		s.log.Printf("server: profile %s/%s now at version %d (%d shards)",
			wname, cname, info.Version, info.Shards)
	}
	s.writeJSON(w, http.StatusOK, info)
}

// commitShard is the one commit path of both upload routes: it uploads a
// decoded shard into its aggregate and feeds the online PGO window. A
// replayed upload stays out of the window: the shard already merged once,
// and double-feeding would double its window weight.
func (s *Server) commitShard(workload, config string, prof *profile.Combined, idemKey string) (EntryInfo, bool, error) {
	info, replayed, err := s.store.Upload(workload, config, prof, idemKey)
	if err == nil && !replayed {
		s.planIngest(workload, config, prof)
	}
	return info, replayed, err
}

func (s *Server) handleProfileGet(w http.ResponseWriter, r *http.Request) {
	merged, info, err := s.store.Get(r.PathValue("workload"), r.PathValue("config"))
	if err != nil {
		s.writeErr(w, storeErr(err, http.StatusNotFound, api.CodeNotFound))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Profile-Version", strconv.Itoa(info.Version))
	if err := profile.DefaultCodec.Encode(w, merged); err != nil {
		s.log.Printf("server: write profile: %v", err)
	}
}

// handleClassify classifies every load of the workload against the stored
// (workload, config) profile aggregate and reports the decisions — the
// offline `profmerge && prefetchc -report` flow as one query.
func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	wname, cname := r.PathValue("workload"), r.PathValue("config")
	wl := workloads.Get(wname)
	if wl == nil {
		s.writeErr(w, api.Errorf(http.StatusNotFound, api.CodeUnknownWorkload,
			"unknown workload %q", wname))
		return
	}
	p, aerr := api.DecodeParams(r.URL.Query(), api.ParamSpec{WSST: true})
	if aerr != nil {
		s.writeErr(w, aerr)
		return
	}
	merged, info, err := s.store.Get(wname, cname)
	if err != nil {
		s.writeErr(w, storeErr(err, http.StatusNotFound, api.CodeNotFound))
		return
	}
	opts := s.cfg.Experiments.Prefetch
	if p.WSST {
		opts.EnableWSST = true
	}
	if r.Context().Err() != nil {
		return
	}
	fb, err := core.BuildPrefetched(wl, merged, opts)
	if err != nil {
		s.writeErr(w, apiFromErr(err))
		return
	}
	decisions := make([]api.Decision, 0, len(fb.Decisions))
	for _, d := range fb.Decisions {
		decisions = append(decisions, api.Decision{
			Func: d.Key.Func, ID: d.Key.ID, Class: d.Class.String(),
			InLoop: d.InLoop, Freq: d.Freq, Trip: d.Trip, Stride: d.Stride,
			K: d.K, CoverLines: d.CoverLines, FilteredBy: d.FilteredBy,
		})
	}
	s.writeJSON(w, http.StatusOK, api.ClassifyReport{
		Workload:  wname,
		Config:    cname,
		Version:   info.Version,
		Shards:    info.Shards,
		Inserted:  fb.Inserted,
		Decisions: decisions,
	})
}
