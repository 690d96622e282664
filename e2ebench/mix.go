package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"maps"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stridepf/internal/api"
	"stridepf/internal/client"
	"stridepf/internal/core"
	"stridepf/internal/experiments"
	"stridepf/internal/instrument"
	"stridepf/internal/machine"
	"stridepf/internal/profile"
	"stridepf/internal/server"
	"stridepf/internal/simcheck"
	"stridepf/internal/walstore"
	"stridepf/internal/workloads"
)

// The strided-mix workload: the strided daemon in-process on loopback,
// backed by the WAL store with production defaults, under a closed-loop
// load from mixWorkers connections. Each request has the shape one of the
// repository's own clients gives it: `strideprof -push` uploads the single
// shard of one profiling run (UploadShard, POST /v1/profiles/{w}/{c});
// `stridedctl push` with several files uploads them as one batch for a
// single aggregate (UploadBatch); `stridedctl classify`, `pull` and
// `figure` read. One SSE subscriber follows, like `stridedctl watch`, the
// plan of a drifting kernel whose runs are pushed like any other. The
// proportions of the four-request cycle, the batch sizes and the drift
// period are assumptions: no trace of a deployed daemon exists to take
// them from.
const (
	// mixWorkers is the number of closed-loop load connections, the core
	// count of the machine the benchmark was defined on. It is fixed so a
	// run measures the same load everywhere.
	mixWorkers = 2
	// mixRequests is the length of one repetition. Every repetition starts
	// from an empty store, so a fixed length keeps the store's growth (and
	// with it the snapshot cost) identical across repetitions.
	mixRequests = 2400
	// mixVariants is how many seed-varied train inputs each real aggregate
	// is profiled on; pushes and batches draw their shards from these runs.
	mixVariants = 2
	// mixMaxBatch bounds a stridedctl batch, which carries 2 to mixMaxBatch
	// runs of one aggregate.
	mixMaxBatch = 4
	// mixDriftEvery is how many drift-kernel pushes stay in one phase.
	mixDriftEvery = 6
	// driftPhases is the period of the drift kernel's strides: a phase
	// rotates the kernel's pool of five strides.
	driftPhases = 5
	// driftConfig names the drift kernel's aggregate; its shards are
	// naive-loop profiles.
	driftConfig = "naive-loop"
	// mixFigure is the warm figure read, narrowed to one workload.
	mixFigure         = "17"
	mixFigureWorkload = "197.parser"
)

// The request kinds, in the order of the repeating four-request cycle.
const (
	reqPush      = iota // strideprof -push of a real program's run
	reqDriftPush        // strideprof -push of the drifting kernel's run
	reqBatch            // stridedctl push of several runs of one aggregate
	reqRead             // stridedctl classify, pull or figure, in rotation
	reqKinds
)

// mixConfigs are the collection setups of the real-workload shard pool.
var mixConfigs = []string{instrument.EdgeCheck.String(), "sample-" + instrument.EdgeCheck.String()}

// mixWatched are the real-program plan watchers: with them, ingest
// reclassifies real programs, not only the small drift kernel.
var mixWatched = [][2]string{{"181.mcf", "edge-check"}, {"197.parser", "edge-check"}}

// mixShard is one profile shard addressed to its aggregate.
type mixShard struct {
	workload, config string
	prof             *profile.Combined
}

func (s mixShard) agg() string { return s.workload + "|" + s.config }

// strideMix holds what every repetition reuses: the real aggregates' runs
// and the drift kernel's per-phase shards, all derived from the seed.
type strideMix struct {
	walParent string // each repetition's WAL directory is created here
	seed      uint64
	roster    []string
	requests  int
	aggs      [][]mixShard // per real aggregate, its mixVariants runs
	drift     *simcheck.DriftKernel
	phases    []mixShard
}

// newStrideMix profiles every real aggregate on seed-varied train inputs,
// and registers and profiles the drift kernel in each phase. The shards go
// through the codec once, so the offline oracle merges exactly what the
// server decodes.
func newStrideMix(walParent string, seed uint64, roster []string, requests int) (*strideMix, error) {
	m := &strideMix{walParent: walParent, seed: seed, roster: roster, requests: requests}
	specs := map[string]experiments.MethodSpec{}
	for _, spec := range experiments.PaperMethods() {
		specs[spec.Name] = spec
	}
	for _, name := range roster {
		w := workloads.Get(name)
		if w == nil {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		tr := w.Train()
		for _, cfg := range mixConfigs {
			runs := make([]mixShard, mixVariants)
			for v := range runs {
				salt := (seed*mixVariants + uint64(v)) * 0x9E3779B97F4A7C15
				sh, err := profileShard(w, core.Input{Name: tr.Name, Scale: tr.Scale, Seed: tr.Seed ^ salt}, specs[cfg].Opts)
				if err != nil {
					return nil, err
				}
				runs[v] = mixShard{name, cfg, sh}
			}
			m.aggs = append(m.aggs, runs)
		}
	}
	m.drift = simcheck.NewDriftKernel(seed)
	if err := workloads.Register(m.drift); err != nil {
		return nil, err
	}
	for p := 0; p < driftPhases; p++ {
		m.drift.SetPhase(p)
		sh, err := profileShard(m.drift, m.drift.Train(), instrument.Options{Method: instrument.NaiveLoop})
		if err != nil {
			return nil, err
		}
		m.phases = append(m.phases, mixShard{m.drift.Name(), driftConfig, sh})
	}
	return m, nil
}

// profileShard runs one profiling pass and round-trips its profile through
// the wire codec.
func profileShard(w core.Workload, in core.Input, opts instrument.Options) (*profile.Combined, error) {
	pr, err := core.ProfilePass(w, in, opts, machine.Config{})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := profile.DefaultCodec.Encode(&buf, pr.Profiles); err != nil {
		return nil, err
	}
	return profile.DefaultCodec.Decode(&buf)
}

// plan returns request i's aggregate, drawn with the seed, and the shards
// it uploads (none for a read). The drift kernel's phase advances every
// mixDriftEvery drift pushes.
func (m *strideMix) plan(i int) (agg mixShard, shards []mixShard) {
	rng := rand.New(rand.NewPCG(m.seed, uint64(i)))
	runs := m.aggs[rng.IntN(len(m.aggs))]
	switch i % reqKinds {
	case reqPush:
		shards = []mixShard{runs[rng.IntN(len(runs))]}
	case reqDriftPush:
		shards = []mixShard{m.phases[(i/reqKinds/mixDriftEvery)%driftPhases]}
	case reqBatch:
		shards = make([]mixShard, 2+rng.IntN(mixMaxBatch-1))
		for j := range shards {
			shards[j] = runs[rng.IntN(len(runs))]
		}
	}
	return runs[0], shards
}

// probe is one repetition's server-side view, recorded by the wrappers the
// benchmark injects: the ProfileStore and Gate through server.Config, the
// handler around server.Server, and the client's transport.
type probe struct {
	tr       *tracer
	queue    atomic.Int64
	queueMax atomic.Int64
	wire     atomic.Int64

	mu       sync.Mutex
	handled  map[string]float64 // request id → handler ms
	gateWait map[string]float64 // request id → gate wait ms
	uploadMs []float64
	getMs    []float64
	commits  map[string][]commit // aggregate → committed uploads
	replays  int
}

// commit is one accepted upload: the aggregate version it produced, which
// orders the aggregate's merges, and the shard's idempotency key.
type commit struct {
	version int
	key     string
}

func newProbe(tr *tracer) *probe {
	return &probe{
		tr:       tr,
		handled:  map[string]float64{},
		gateWait: map[string]float64{},
		commits:  map[string][]commit{},
	}
}

func msSince(t0, t1 time.Time) float64 { return float64(t1.Sub(t0).Nanoseconds()) / 1e6 }

// storeProbe times the store and records commit order.
type storeProbe struct {
	server.ProfileStore
	p *probe
}

func (s storeProbe) Upload(w, c string, prof *profile.Combined, key string) (server.EntryInfo, bool, error) {
	// Idempotency keys are "<request id>-<shard>", which maps the upload
	// back to its request.
	rid, _, _ := strings.Cut(key, "-")
	parent := s.p.tr.parentOf(rid)
	t0 := time.Now()
	info, replayed, err := s.ProfileStore.Upload(w, c, prof, key)
	t1 := time.Now()
	s.p.tr.record(0, parent, "store.Upload", rid, t0, t1)
	s.p.mu.Lock()
	s.p.uploadMs = append(s.p.uploadMs, msSince(t0, t1))
	switch {
	case err != nil:
	case replayed:
		s.p.replays++
	default:
		s.p.commits[w+"|"+c] = append(s.p.commits[w+"|"+c], commit{info.Version, key})
	}
	s.p.mu.Unlock()
	return info, replayed, err
}

func (s storeProbe) Get(w, c string) (*profile.Combined, server.EntryInfo, error) {
	t0 := time.Now()
	prof, info, err := s.ProfileStore.Get(w, c)
	t1 := time.Now()
	s.p.tr.record(0, 0, "store.Get", "", t0, t1)
	s.p.mu.Lock()
	s.p.getMs = append(s.p.getMs, msSince(t0, t1))
	s.p.mu.Unlock()
	return prof, info, err
}

// gateProbe times admission and tracks how many requests wait at once.
type gateProbe struct {
	server.Gate
	p *probe
}

func (g gateProbe) Acquire(ctx context.Context) error {
	rid := ridFrom(ctx)
	q := g.p.queue.Add(1)
	for m := g.p.queueMax.Load(); q > m && !g.p.queueMax.CompareAndSwap(m, q); m = g.p.queueMax.Load() {
	}
	t0 := time.Now()
	err := g.Gate.Acquire(ctx)
	t1 := time.Now()
	g.p.queue.Add(-1)
	g.p.tr.record(0, g.p.tr.parentOf(rid), "gate.Acquire", rid, t0, t1)
	if rid != "" {
		g.p.mu.Lock()
		g.p.gateWait[rid] = msSince(t0, t1)
		g.p.mu.Unlock()
	}
	return err
}

// handler wraps the daemon: it lifts the request id into the request
// context, where the Gate wrapper reads it, and times the handler.
func (p *probe) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := r.Header.Get("X-Request-Id")
		if rid == "" {
			h.ServeHTTP(w, r)
			return
		}
		r = r.WithContext(withRID(r.Context(), rid))
		id := p.tr.newID()
		parent := p.tr.enter(rid, id)
		t0 := time.Now()
		h.ServeHTTP(w, r)
		t1 := time.Now()
		p.tr.record(id, parent, "http "+r.Method+" "+r.URL.Path, rid, t0, t1)
		p.mu.Lock()
		p.handled[rid] = msSince(t0, t1)
		p.mu.Unlock()
	})
}

// ridTransport sends the request id of the call's context as X-Request-Id
// and counts the bytes on the wire.
type ridTransport struct {
	base http.RoundTripper
	wire *atomic.Int64
}

func (t ridTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if rid := ridFrom(req.Context()); rid != "" {
		req = req.Clone(req.Context())
		req.Header.Set("X-Request-Id", rid)
	}
	if req.ContentLength > 0 {
		t.wire.Add(req.ContentLength)
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = countingBody{resp.Body, t.wire}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// delivery is one plan delta as the subscriber received it.
type delivery struct {
	delta api.PlanDelta
	at    time.Time
}

// workerLog is what one load connection records; workers share nothing
// while the load runs.
type workerLog struct {
	uploads, reads   map[string]float64 // request id → client-observed ms
	sent             map[string]mixShard
	driftSent        map[string]time.Time // drift shard key → push send time
	failures         []string
	requests, shards int
}

func newWorkerLog() *workerLog {
	return &workerLog{
		uploads: map[string]float64{}, reads: map[string]float64{},
		sent: map[string]mixShard{}, driftSent: map[string]time.Time{},
	}
}

// rep runs one repetition against a fresh daemon and WAL directory.
func (m *strideMix) rep(ctx context.Context, _ int, tr *tracer) (res repResult, err error) {
	res = newRepResult()
	if err := os.MkdirAll(m.walParent, 0o755); err != nil {
		return res, err
	}
	dir, err := os.MkdirTemp(m.walParent, "wal-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	quiet := log.New(io.Discard, "", 0)
	ws, err := walstore.Open(dir, walstore.Options{Log: quiet})
	if err != nil {
		return res, err
	}
	defer ws.Close()

	p := newProbe(tr)
	procs := runtime.GOMAXPROCS(0)
	srv := server.New(server.Config{
		Experiments: experiments.Config{Workloads: m.roster},
		Store:       storeProbe{ws, p},
		Gate:        gateProbe{server.NewSlotGate(procs, 2*procs), p},
		Log:         quiet,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return res, err
	}
	hs := &http.Server{Handler: p.handler(srv), ErrorLog: quiet}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	transport := &http.Transport{MaxIdleConnsPerHost: mixWorkers + 2}
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if serr := hs.Shutdown(sctx); serr != nil && err == nil {
			err = fmt.Errorf("server shutdown: %w", serr)
		}
		if serr := <-served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		if derr := srv.Drain(sctx); derr != nil && err == nil {
			err = derr
		}
		transport.CloseIdleConnections()
	}()
	c, err := client.New(client.Config{
		BaseURL: "http://" + ln.Addr().String(),
		HTTP:    &http.Client{Transport: ridTransport{transport, &p.wire}},
	})
	if err != nil {
		return res, err
	}

	// Untimed prime: create the plan watchers, connect the subscriber, give
	// every aggregate its first shard and warm the figure.
	for _, wc := range mixWatched {
		if _, err := c.PlanStatus(ctx, wc[0], wc[1]); err != nil {
			return res, err
		}
	}
	driftName := m.drift.Name()
	subCtx, stopSub := context.WithCancel(ctx)
	defer stopSub()
	var (
		deliveries []delivery
		lastEpoch  atomic.Uint64
		plan       = map[string]api.PlanChange{}
	)
	subDone := make(chan error, 1)
	go func() {
		subDone <- c.Subscribe(subCtx, driftName, driftConfig, 0, func(d api.PlanDelta) error {
			deliveries = append(deliveries, delivery{d, time.Now()})
			applyDelta(plan, d)
			lastEpoch.Store(d.Epoch)
			return nil
		})
	}()
	if err := waitFor(ctx, func() (bool, error) {
		st, err := c.PlanStatus(ctx, driftName, driftConfig)
		return st.Subscribers > 0, err
	}); err != nil {
		return res, fmt.Errorf("subscriber did not connect: %w", err)
	}
	sent := map[string]mixShard{}
	var prime []client.BatchShard
	primed := []mixShard{m.phases[0]}
	for _, runs := range m.aggs {
		primed = append(primed, runs[0])
	}
	for k, sh := range primed {
		key := "prime-" + strconv.Itoa(k)
		sent[key] = sh
		prime = append(prime, client.BatchShard{Workload: sh.workload, Config: sh.config, Profile: sh.prof, Key: key})
	}
	if _, err := c.UploadBatch(ctx, prime); err != nil {
		return res, err
	}
	if _, err := c.FigureText(ctx, mixFigure, "", []string{mixFigureWorkload}); err != nil {
		return res, err
	}

	// The timed phase: mixWorkers closed loops over one request counter.
	var (
		next int64 = -1
		logs       = make([]*workerLog, mixWorkers)
		wg   sync.WaitGroup
	)
	p.mu.Lock()
	primeUploads, primeGets := len(p.uploadMs), len(p.getMs)
	p.mu.Unlock()
	repID := tr.newID()
	tr.timed(true)
	start := time.Now()
	for w := range logs {
		logs[w] = newWorkerLog()
		wg.Add(1)
		go func(l *workerLog) {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= m.requests {
					return
				}
				m.request(ctx, c, tr, repID, i, l)
			}
		}(logs[w])
	}
	wg.Wait()
	end := time.Now()
	tr.timed(false)
	tr.record(repID, 0, "rep", "", start, end)
	res.JobS = end.Sub(start).Seconds()

	// Let the subscriber catch up with the watcher, then stop it.
	var status api.PlanStatus
	if err := waitFor(ctx, func() (bool, error) {
		var err error
		status, err = c.PlanStatus(ctx, driftName, driftConfig)
		return lastEpoch.Load() == status.Epoch, err
	}); err != nil {
		res.fail(fmt.Sprintf("subscriber stuck at epoch %d, watcher at %d: %v", lastEpoch.Load(), status.Epoch, err))
	}
	stopSub()
	if serr := <-subDone; serr != nil && subCtx.Err() == nil {
		res.fail(fmt.Sprintf("subscribe: %v", serr))
	}

	// The wrappers record after the inner call returns, which can trail the
	// client's view of the response; snapshot them under the lock, before
	// the oracle's own reads add to them.
	p.mu.Lock()
	handled, gateWait := maps.Clone(p.handled), maps.Clone(p.gateWait)
	commitsByAgg := maps.Clone(p.commits)
	uploadMs, getMs := slices.Clone(p.uploadMs[primeUploads:]), slices.Clone(p.getMs[primeGets:])
	replays := p.replays
	p.mu.Unlock()
	shards := 0
	driftSent := map[string]time.Time{}
	for _, l := range logs {
		res.Attempted += l.requests
		res.Failed += len(l.failures)
		res.Failures = append(res.Failures, l.failures...)
		shards += l.shards
		for k, v := range l.sent {
			sent[k] = v
		}
		for k, v := range l.driftSent {
			driftSent[k] = v
		}
		for rid, ms := range l.uploads {
			res.Samples["ingest_ms"] = append(res.Samples["ingest_ms"], ms)
			if h, ok := handled[rid]; ok {
				res.Samples["server.ingest_ms"] = append(res.Samples["server.ingest_ms"], h)
				res.Samples["net.ingest_ms"] = append(res.Samples["net.ingest_ms"], ms-h)
			}
		}
		for rid, ms := range l.reads {
			res.Samples["read_ms"] = append(res.Samples["read_ms"], ms)
			if h, ok := handled[rid]; ok {
				res.Samples["server.read_ms"] = append(res.Samples["server.read_ms"], h)
			}
			if g, ok := gateWait[rid]; ok {
				res.Samples["gate.wait_ms"] = append(res.Samples["gate.wait_ms"], g)
			}
		}
	}

	// Plan lag: a delta computed after the window's r-th round was caused
	// by the r-th drift shard the store committed (versions order commits;
	// two concurrent pushes may swap between commit and window ingest).
	byVersion := map[int]string{}
	for _, cm := range commitsByAgg[driftName+"|"+driftConfig] {
		byVersion[cm.version] = cm.key
	}
	for _, d := range deliveries {
		if t0, ok := driftSent[byVersion[d.delta.Rounds]]; ok {
			res.Samples["plan_lag_ms"] = append(res.Samples["plan_lag_ms"], msSince(t0, d.at))
		}
	}

	res.Attempted += 3 // the three oracles
	if err := checkAggregates(ctx, c, commitsByAgg, sent); err != nil {
		res.fail(err.Error())
	}
	if err := checkEpochs(deliveries, status); err != nil {
		res.fail(err.Error())
	}
	if err := checkPlan(plan, status); err != nil {
		res.fail(err.Error())
	}

	res.Values["ingest_shards_per_s"] = float64(shards) / res.JobS
	res.Values["walstore.dir_bytes"] = float64(dirBytes(dir))
	res.Values["gate.queue_max"] = float64(p.queueMax.Load())
	res.Values["plan.deltas"] = float64(status.Epoch)
	res.Values["plan.rounds"] = float64(status.Rounds)
	if status.Rounds > 0 {
		res.Values["plan.useful_frac"] = float64(status.Epoch) / float64(status.Rounds)
	}
	commits := 0
	for _, cs := range commitsByAgg {
		commits += len(cs)
	}
	res.Values["svc.uploads"] = float64(commits)
	res.Values["svc.replays"] = float64(replays)
	res.Values["svc.wire_mb"] = float64(p.wire.Load()) / (1 << 20)
	res.Samples["walstore.upload_ms"] = uploadMs
	res.Samples["walstore.get_ms"] = getMs
	return res, nil
}

// checkAggregates is the store oracle: every aggregate's codec bytes must
// equal the offline profile.Merge of the shards sent to it, merged in the
// order the store committed them, and every sent shard must have committed
// exactly once.
func checkAggregates(ctx context.Context, c *client.Client, commits map[string][]commit, sent map[string]mixShard) error {
	want := map[string]int{}
	for _, sh := range sent {
		want[sh.agg()]++
	}
	aggs := make([]string, 0, len(want))
	for agg := range want {
		aggs = append(aggs, agg)
	}
	sort.Strings(aggs)
	for _, agg := range aggs {
		cs := append([]commit(nil), commits[agg]...)
		if len(cs) != want[agg] {
			return fmt.Errorf("aggregate %s: %d commits for %d shards sent", agg, len(cs), want[agg])
		}
		sort.Slice(cs, func(i, j int) bool { return cs[i].version < cs[j].version })
		profs := make([]*profile.Combined, len(cs))
		for i, cm := range cs {
			sh, ok := sent[cm.key]
			if cm.version != i+1 || !ok || sh.agg() != agg {
				return fmt.Errorf("aggregate %s: commit %d is version %d of shard %q", agg, i+1, cm.version, cm.key)
			}
			profs[i] = sh.prof
		}
		offline, err := profile.Merge(profs...)
		if err != nil {
			return fmt.Errorf("aggregate %s: offline merge: %w", agg, err)
		}
		w, cfg, _ := strings.Cut(agg, "|")
		served, _, err := c.FetchProfile(ctx, w, cfg)
		if err != nil {
			return fmt.Errorf("aggregate %s: %w", agg, err)
		}
		var a, b bytes.Buffer
		if err := profile.DefaultCodec.Encode(&a, offline); err != nil {
			return err
		}
		if err := profile.DefaultCodec.Encode(&b, served); err != nil {
			return err
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			return fmt.Errorf("aggregate %s: codec bytes differ from the offline merge of its %d shards", agg, len(profs))
		}
	}
	return nil
}

// checkEpochs is the delivery oracle: the subscriber saw epochs 1..E
// exactly once and in order, E being the watcher's epoch, with no reset.
func checkEpochs(deliveries []delivery, status api.PlanStatus) error {
	for i, d := range deliveries {
		if d.delta.Epoch != uint64(i+1) || d.delta.Reset {
			return fmt.Errorf("delivery %d has epoch %d (reset %v)", i+1, d.delta.Epoch, d.delta.Reset)
		}
	}
	if uint64(len(deliveries)) != status.Epoch {
		return fmt.Errorf("subscriber saw %d epochs, watcher is at %d", len(deliveries), status.Epoch)
	}
	return nil
}

// planKey identifies a load in a plan.
func planKey(c api.PlanChange) string { return c.Func + "#" + strconv.Itoa(c.ID) }

// applyDelta replays one delta onto a plan: a reset replaces it, class
// "none" drops a load, anything else sets the load's decision.
func applyDelta(plan map[string]api.PlanChange, d api.PlanDelta) {
	if d.Reset {
		clear(plan)
	}
	for _, c := range d.Changes {
		if c.Class == "none" {
			delete(plan, planKey(c))
			continue
		}
		c.PrevClass, c.PrevStride = "", 0
		plan[planKey(c)] = c
	}
}

// checkPlan is the replay oracle: the deltas, applied in order, must
// rebuild the plan the watcher reports.
func checkPlan(plan map[string]api.PlanChange, status api.PlanStatus) error {
	if len(plan) != len(status.Plan) {
		return fmt.Errorf("replayed plan has %d loads, status plan %d", len(plan), len(status.Plan))
	}
	for _, want := range status.Plan {
		if got, ok := plan[planKey(want)]; !ok || got != want {
			return fmt.Errorf("replayed plan entry %s is %+v, status has %+v", planKey(want), got, want)
		}
	}
	return nil
}

// waitFor polls cond until it holds, fails, or ten seconds pass.
func waitFor(ctx context.Context, cond func() (bool, error)) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		ok, err := cond()
		if err != nil || ok {
			return err
		}
		if time.Now().After(deadline) {
			return errors.New("timed out")
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// dirBytes sums the sizes of the files directly in dir.
func dirBytes(dir string) int64 {
	des, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, de := range des {
		if info, err := de.Info(); err == nil {
			n += info.Size()
		}
	}
	return n
}

// request issues request i of the cycle: a single-shard push, a batch of
// one aggregate's runs, or a read rotating classify, profile fetch and the
// warm figure. Upload keys are "<request id>-<shard>".
func (m *strideMix) request(ctx context.Context, c *client.Client, tr *tracer, repID int64, i int, l *workerLog) {
	rid := "q" + strconv.Itoa(i)
	ctx = withRID(ctx, rid)
	id := tr.newID()
	tr.enter(rid, id)
	l.requests++
	agg, shards := m.plan(i)
	keys := make([]string, len(shards))
	for j, sh := range shards {
		keys[j] = rid + "-" + strconv.Itoa(j)
		l.sent[keys[j]] = sh
	}
	var (
		name string
		err  error
	)
	t0 := time.Now()
	switch {
	case i%reqKinds == reqBatch:
		name = "client.UploadBatch"
		batch := make([]client.BatchShard, len(shards))
		for j, sh := range shards {
			batch[j] = client.BatchShard{Workload: sh.workload, Config: sh.config, Profile: sh.prof, Key: keys[j]}
		}
		var results []client.BatchResult
		results, err = c.UploadBatch(ctx, batch)
		for j, r := range results {
			if r.Err != "" {
				l.failures = append(l.failures, fmt.Sprintf("%s shard %d: %s", rid, j, r.Err))
			}
		}
	case len(shards) == 1:
		name = "client.UploadShard"
		_, err = c.UploadShardKeyed(ctx, shards[0].workload, shards[0].config, shards[0].prof, keys[0])
	default:
		switch (i / reqKinds) % 3 {
		case 0:
			name = "client.Classify"
			_, err = c.Classify(ctx, agg.workload, agg.config)
		case 1:
			name = "client.FetchProfile"
			_, _, err = c.FetchProfile(ctx, agg.workload, agg.config)
		default:
			name = "client.FigureText"
			_, err = c.FigureText(ctx, mixFigure, "", []string{mixFigureWorkload})
		}
	}
	t1 := time.Now()
	tr.record(id, repID, name, rid, t0, t1)
	if err != nil {
		l.failures = append(l.failures, fmt.Sprintf("%s %s: %v", rid, name, err))
		return
	}
	if len(shards) == 0 {
		l.reads[rid] = msSince(t0, t1)
		return
	}
	l.uploads[rid] = msSince(t0, t1)
	l.shards += len(shards)
	if i%reqKinds == reqDriftPush {
		l.driftSent[keys[0]] = t0
	}
}
