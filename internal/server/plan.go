package server

import (
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"stridepf/internal/api"
	"stridepf/internal/machine"
	"stridepf/internal/prefetch"
	"stridepf/internal/profile"
	"stridepf/internal/workloads"
)

// The online PGO loop, server side. A plan watcher per (workload, config)
// feeds every accepted upload into an exponentially-decayed profile window
// (profile.Window), reclassifies the workload's loads over each window
// snapshot, and diffs the resulting prefetch plan against the previous
// one. Each non-empty diff becomes a PlanDelta with a monotonically-
// increasing epoch, appended to a bounded history ring and broadcast to
// subscribers of GET /v1/plan/watch (SSE or long-poll). A subscriber that
// reconnects with ?from=<last applied epoch> replays the missed suffix
// from the ring — or receives one full-plan Reset snapshot if its resume
// point has aged out — so it sees every delta exactly once. Consumers
// close the loop by reporting realized speedup to POST /v1/plan/feedback.
//
// Watchers are created lazily by the plan endpoints, never by uploads:
// a deployment that doesn't watch plans pays nothing for this machinery
// (uploads only probe a map under a mutex).

// PlanConfig parameterises the online plan watchers.
type PlanConfig struct {
	// Window configures the per-watcher decayed profile window.
	Window profile.WindowConfig
	// History bounds the delta ring replayable incrementally; a resume
	// from before the ring gets a Reset snapshot. Zero selects 256.
	History int
	// Heartbeat is the SSE keep-alive comment interval. Zero selects 15s.
	Heartbeat time.Duration
	// MaxWait clamps the long-poll ?wait= bound. Zero selects 30s.
	MaxWait time.Duration
	// Feedback bounds the per-watcher feedback ring. Zero selects 64.
	Feedback int
}

func (c PlanConfig) history() int {
	if c.History > 0 {
		return c.History
	}
	return 256
}

func (c PlanConfig) heartbeat() time.Duration {
	if c.Heartbeat > 0 {
		return c.Heartbeat
	}
	return 15 * time.Second
}

func (c PlanConfig) maxWait() time.Duration {
	if c.MaxWait > 0 {
		return c.MaxWait
	}
	return 30 * time.Second
}

func (c PlanConfig) feedback() int {
	if c.Feedback > 0 {
		return c.Feedback
	}
	return 64
}

// planHub owns the watchers.
type planHub struct {
	mu       sync.Mutex
	watchers map[string]*planWatcher
}

func newPlanHub() *planHub {
	return &planHub{watchers: make(map[string]*planWatcher)}
}

func (h *planHub) count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.watchers)
}

// get returns the (workload, config) watcher, creating it when create is
// set. Uploads pass create=false: ingest only feeds watchers some plan
// endpoint already asked for.
func (h *planHub) get(s *Server, workload, config string, create bool) (*planWatcher, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	key := storeKey(workload, config)
	if w, ok := h.watchers[key]; ok {
		return w, nil
	}
	if !create {
		return nil, nil
	}
	win, err := profile.NewWindow(s.cfg.Plan.Window)
	if err != nil {
		return nil, err
	}
	w := &planWatcher{
		workload: workload,
		config:   config,
		window:   win,
		plan:     make(map[machine.LoadKey]api.PlanChange),
		wake:     make(chan struct{}),
	}
	h.watchers[key] = w
	return w, nil
}

// planWatcher runs the reclassification loop of one (workload, config).
type planWatcher struct {
	workload, config string

	// subs counts connected watch streams (poll requests count while
	// waiting). Outside the mutex: read by status snapshots.
	subs atomic.Int64

	mu     sync.Mutex
	window *profile.Window
	epoch  uint64
	// plan is the current full plan keyed by load.
	plan map[machine.LoadKey]api.PlanChange
	// history is the incremental-replay ring; history[0].Epoch is the
	// oldest epoch a resume can replay without a Reset.
	history  []api.PlanDelta
	rounds   int
	feedback []api.PlanFeedback
	// wake is closed and replaced whenever a new delta lands.
	wake chan struct{}
}

// ingest merges one accepted shard into the window, reclassifies, and
// publishes a delta if the plan changed. Rounds are serialised per watcher
// by its mutex, which the epoch ordering depends on.
func (w *planWatcher) ingest(s *Server, shard *profile.Combined) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	rounds, err := w.window.Add(shard)
	if err != nil {
		return err
	}
	w.rounds = rounds
	snap, _ := w.window.Snapshot()
	res, err := prefetch.Apply(analysedProgram(w.workload), snap, s.cfg.Experiments.Prefetch)
	if err != nil {
		return err
	}
	next := make(map[machine.LoadKey]api.PlanChange, len(res.Decisions))
	for _, d := range res.Decisions {
		if d.Class.String() == "none" {
			continue
		}
		next[d.Key] = api.PlanChange{
			Func: d.Key.Func, ID: d.Key.ID, Class: d.Class.String(),
			Stride: d.Stride, K: d.K, CoverLines: d.CoverLines,
		}
	}
	changes := diffPlans(w.plan, next)
	if len(changes) == 0 {
		return nil
	}
	w.plan = next
	w.epoch++
	delta := api.PlanDelta{
		Workload: w.workload, Config: w.config,
		Epoch: w.epoch, Rounds: w.rounds, Changes: changes,
	}
	w.history = append(w.history, delta)
	if max := s.cfg.Plan.history(); len(w.history) > max {
		w.history = w.history[len(w.history)-max:]
	}
	close(w.wake)
	w.wake = make(chan struct{})
	return nil
}

// diffPlans returns the changes turning old into next, sorted by
// (func, id). A load leaving the plan appears as class "none" with its
// previous decision in the Prev fields.
func diffPlans(old, next map[machine.LoadKey]api.PlanChange) []api.PlanChange {
	var out []api.PlanChange
	for k, n := range next {
		o, ok := old[k]
		if !ok {
			out = append(out, n)
			continue
		}
		if o.Class != n.Class || o.Stride != n.Stride || o.K != n.K || o.CoverLines != n.CoverLines {
			n.PrevClass, n.PrevStride = o.Class, o.Stride
			out = append(out, n)
		}
	}
	for k, o := range old {
		if _, ok := next[k]; !ok {
			out = append(out, api.PlanChange{
				Func: k.Func, ID: k.ID, Class: "none",
				PrevClass: o.Class, PrevStride: o.Stride,
			})
		}
	}
	sortChanges(out)
	return out
}

func sortChanges(cs []api.PlanChange) {
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].Func != cs[j].Func {
			return cs[i].Func < cs[j].Func
		}
		return cs[i].ID < cs[j].ID
	})
}

// fullPlan returns the current plan as a sorted change list. Caller holds
// w.mu.
func (w *planWatcher) fullPlanLocked() []api.PlanChange {
	out := make([]api.PlanChange, 0, len(w.plan))
	for _, c := range w.plan {
		out = append(out, c)
	}
	sortChanges(out)
	return out
}

// since returns every delta after epoch from plus the wake channel that
// will close on the next publication. Fetching both under one lock closes
// the lost-wakeup race: a delta published between "nothing new" and "wait"
// closes the returned channel, so the waiter always observes it. When from
// predates the history ring, one Reset snapshot stands in for the missing
// suffix.
func (w *planWatcher) since(from uint64) ([]api.PlanDelta, chan struct{}) {
	w.mu.Lock()
	defer w.mu.Unlock()
	wake := w.wake
	if from >= w.epoch {
		return nil, wake
	}
	if len(w.history) > 0 && from+1 >= w.history[0].Epoch {
		first := w.history[0].Epoch
		return append([]api.PlanDelta(nil), w.history[from+1-first:]...), wake
	}
	return []api.PlanDelta{{
		Workload: w.workload, Config: w.config,
		Epoch: w.epoch, Rounds: w.rounds, Reset: true,
		Changes: w.fullPlanLocked(),
	}}, wake
}

func (w *planWatcher) currentEpoch() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.epoch
}

func (w *planWatcher) status() api.PlanStatus {
	w.mu.Lock()
	defer w.mu.Unlock()
	st := api.PlanStatus{
		Workload:    w.workload,
		Config:      w.config,
		Epoch:       w.epoch,
		Rounds:      w.rounds,
		Subscribers: int(w.subs.Load()),
		Plan:        w.fullPlanLocked(),
		Feedback:    append([]api.PlanFeedback(nil), w.feedback...),
	}
	if len(w.history) > 0 {
		st.MinEpoch = w.history[0].Epoch
	}
	return st
}

// planIngest feeds an accepted (non-replayed) upload into the matching
// watcher, if one exists. Ingest failures must not fail the upload — the
// shard is already committed to the store — so they are logged only.
func (s *Server) planIngest(workload, config string, shard *profile.Combined) {
	w, err := s.plans.get(s, workload, config, false)
	if err != nil || w == nil {
		return
	}
	if err := w.ingest(s, shard); err != nil {
		s.log.Printf("server: plan %s/%s: ingest: %v", workload, config, err)
	}
}

// planParams decodes the watcher-addressing query of the plan endpoints.
func (s *Server) planParams(r *http.Request, withResume bool) (api.Params, *api.Error) {
	spec := api.ParamSpec{
		PlanKey:       true,
		KnownWorkload: func(n string) bool { return workloads.Get(n) != nil },
	}
	if withResume {
		spec.Epoch = true
		spec.Wait = true
		spec.MaxWait = s.cfg.Plan.maxWait()
	}
	return api.DecodeParams(r.URL.Query(), spec)
}

// handlePlanWatch is the subscription endpoint. The default SSE mode
// streams one "plan" event per delta (id = epoch) with heartbeat comments
// between; mode=poll answers one PlanPoll document after at most ?wait=
// seconds. Both resume from ?from=.
func (s *Server) handlePlanWatch(w http.ResponseWriter, r *http.Request) {
	p, aerr := s.planParams(r, true)
	if aerr != nil {
		s.writeErr(w, aerr)
		return
	}
	watcher, err := s.plans.get(s, p.Workload, p.Config, true)
	if err != nil {
		s.writeErr(w, api.Errorf(http.StatusInternalServerError, api.CodeInternal, "%v", err))
		return
	}
	if cur := watcher.currentEpoch(); p.From > cur {
		s.writeErr(w, api.Errorf(http.StatusBadRequest, api.CodeBadEpoch,
			"resume epoch %d is ahead of the current epoch %d", p.From, cur))
		return
	}
	watcher.subs.Add(1)
	defer watcher.subs.Add(-1)
	if p.Mode == "poll" {
		s.planPoll(w, r, watcher, p)
		return
	}
	s.planSSE(w, r, watcher, p)
}

func (s *Server) planPoll(w http.ResponseWriter, r *http.Request, watcher *planWatcher, p api.Params) {
	timer := time.NewTimer(p.Wait)
	defer timer.Stop()
	for {
		deltas, wake := watcher.since(p.From)
		if len(deltas) > 0 {
			s.writeJSON(w, http.StatusOK, api.PlanPoll{
				Workload: p.Workload, Config: p.Config,
				Epoch: deltas[len(deltas)-1].Epoch, Deltas: deltas,
			})
			return
		}
		select {
		case <-wake:
		case <-timer.C:
			s.writeJSON(w, http.StatusOK, api.PlanPoll{
				Workload: p.Workload, Config: p.Config,
				Epoch: watcher.currentEpoch(), Deltas: []api.PlanDelta{},
			})
			return
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) planSSE(w http.ResponseWriter, r *http.Request, watcher *planWatcher, p api.Params) {
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	rc.Flush()

	hb := time.NewTicker(s.cfg.Plan.heartbeat())
	defer hb.Stop()
	last := p.From
	for {
		deltas, wake := watcher.since(last)
		for _, d := range deltas {
			data, err := json.Marshal(d)
			if err != nil {
				s.log.Printf("server: plan %s/%s: encode delta: %v", p.Workload, p.Config, err)
				return
			}
			if err := api.WriteEvent(w, api.Event{
				ID: strconv.FormatUint(d.Epoch, 10), Name: "plan", Data: string(data),
			}); err != nil {
				return // subscriber went away
			}
			last = d.Epoch
		}
		if err := rc.Flush(); err != nil {
			return
		}
		select {
		case <-wake:
		case <-hb.C:
			if api.WriteComment(w, "heartbeat") != nil || rc.Flush() != nil {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// handlePlanStatus reports a watcher's epoch range, full plan and retained
// feedback.
func (s *Server) handlePlanStatus(w http.ResponseWriter, r *http.Request) {
	p, aerr := s.planParams(r, false)
	if aerr != nil {
		s.writeErr(w, aerr)
		return
	}
	watcher, err := s.plans.get(s, p.Workload, p.Config, true)
	if err != nil {
		s.writeErr(w, api.Errorf(http.StatusInternalServerError, api.CodeInternal, "%v", err))
		return
	}
	s.writeJSON(w, http.StatusOK, watcher.status())
}

// handlePlanFeedback records one consumer's realized-speedup report
// against the plan epoch it had applied.
func (s *Server) handlePlanFeedback(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		s.writeErr(w, api.Errorf(http.StatusBadRequest, api.CodeBadRequest, "read body: %v", err))
		return
	}
	var fb api.PlanFeedback
	if err := json.Unmarshal(body, &fb); err != nil {
		s.writeErr(w, api.Errorf(http.StatusBadRequest, api.CodeBadRequest, "decode feedback: %v", err))
		return
	}
	if fb.Workload == "" || fb.Config == "" {
		s.writeErr(w, api.Errorf(http.StatusBadRequest, api.CodeBadRequest, "feedback needs workload and config"))
		return
	}
	if workloads.Get(fb.Workload) == nil {
		s.writeErr(w, api.Errorf(http.StatusNotFound, api.CodeUnknownWorkload, "unknown workload %q", fb.Workload))
		return
	}
	watcher, err := s.plans.get(s, fb.Workload, fb.Config, true)
	if err != nil {
		s.writeErr(w, api.Errorf(http.StatusInternalServerError, api.CodeInternal, "%v", err))
		return
	}
	watcher.mu.Lock()
	if fb.Epoch > watcher.epoch {
		cur := watcher.epoch
		watcher.mu.Unlock()
		s.writeErr(w, api.Errorf(http.StatusBadRequest, api.CodeBadEpoch,
			"feedback for epoch %d is ahead of the current epoch %d", fb.Epoch, cur))
		return
	}
	watcher.feedback = append(watcher.feedback, fb)
	if max := s.cfg.Plan.feedback(); len(watcher.feedback) > max {
		watcher.feedback = watcher.feedback[len(watcher.feedback)-max:]
	}
	ack := api.PlanFeedbackAck{
		Workload: fb.Workload, Config: fb.Config,
		Epoch: fb.Epoch, Recorded: len(watcher.feedback),
	}
	watcher.mu.Unlock()
	s.log.Printf("server: plan %s/%s: feedback epoch %d speedup %.3f from %q",
		fb.Workload, fb.Config, fb.Epoch, fb.Speedup, fb.Source)
	s.writeJSON(w, http.StatusOK, ack)
}
