package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"stridepf/internal/core"
	"stridepf/internal/hwpf"
	"stridepf/internal/instrument"
	"stridepf/internal/ir"
	"stridepf/internal/machine"
	"stridepf/internal/obs"
	"stridepf/internal/prefetch"
	"stridepf/internal/profile"
	"stridepf/internal/stride"
	"stridepf/internal/workloads"
)

// MethodSpec names one profiling configuration of the paper's evaluation.
type MethodSpec struct {
	// Name is the figure label ("edge-check", "sample-naive-all", ...).
	Name string
	// Opts is the instrumentation configuration.
	Opts instrument.Options
}

// sampledConfig is the Figure 9 sampling setup, scaled from the paper's
// N1 = 8M / N2 = 2M (against billions of references) to this simulator's
// run lengths while keeping the paper's 4:1 skip:profile ratio and F = 4.
// The absolute chunk sizes stay small relative to a workload phase so every
// phase falls into some profiled window.
func sampledConfig() stride.Config {
	return stride.Config{FineInterval: 4, ChunkSkip: 1_200, ChunkProfile: 300}
}

// PaperMethods returns the six one-pass profiling methods evaluated in
// Section 4, in the paper's presentation order. Spec names come from the
// instrument method table, so the figure labels here, the strideprof flag
// values and the golden-listing filenames are all the same strings.
func PaperMethods() []MethodSpec {
	exact := []instrument.Method{instrument.EdgeCheck, instrument.NaiveLoop, instrument.NaiveAll}
	specs := make([]MethodSpec, 0, 2*len(exact))
	for _, m := range exact {
		specs = append(specs, MethodSpec{Name: m.String(), Opts: instrument.Options{Method: m}})
	}
	for _, m := range exact {
		specs = append(specs, MethodSpec{
			Name: "sample-" + m.String(),
			Opts: instrument.Options{Method: m, Stride: sampledConfig()},
		})
	}
	return specs
}

// Config parameterises an experiment session.
type Config struct {
	// Workloads selects benchmarks by name; empty selects all twelve.
	Workloads []string
	// Machine configures the simulated machine.
	Machine machine.Config
	// Prefetch configures the feedback pass.
	Prefetch prefetch.Options
	// HWPF, when non-empty, attaches a fresh hardware prefetcher of the
	// named scheme (see hwpf.Schemes) to every machine the session builds.
	// Empty runs without one — the default, matching the paper's software-
	// only evaluation and keeping figures 15–25 byte-identical to the
	// pre-arena harness. The arena figure ignores this field: it always
	// sweeps every registered scheme against a no-prefetcher baseline.
	HWPF string
	// HWPFConfig sizes the hardware prefetchers (both the HWPF scheme and
	// the arena sweep); the zero value selects the hwpf defaults.
	HWPFConfig hwpf.Config
	// Jobs bounds the worker pool used when the session precomputes cells
	// in parallel (see Warm and RunAll). Zero selects GOMAXPROCS; one runs
	// strictly serially.
	Jobs int
	// Metrics, when non-nil, receives one prefetch-effectiveness report per
	// prefetched measurement cell (accuracy, coverage and timeliness per
	// prefetch class; see package obs). Collection is passive: the figure
	// tables are byte-identical with or without it.
	Metrics *obs.Registry
	// Trace, when non-nil, receives the sampled, bounded JSONL event stream
	// of every observed cell, each event stamped with its cell's run key.
	Trace *obs.Trace
}

func (c *Config) names() []string {
	if len(c.Workloads) > 0 {
		return c.Workloads
	}
	return workloads.Names()
}

func (c *Config) jobs() int {
	if c.Jobs > 0 {
		return c.Jobs
	}
	return runtime.GOMAXPROCS(0)
}

// Session runs and memoises the pipeline stages the figures share: one
// profiling execution per distinct instrumented binary and input, however
// many profile cells instrument that binary (see Profile), and one
// measurement run per distinct binary and input, however many figure cells
// build that binary (see measure).
//
// A session is safe for concurrent use: each memoised entry is computed at
// most once even under concurrent callers (per-key singleflight), and every
// cell — profile, clean run, speedup, classification — builds its own
// machine, heap and cache hierarchy, so cells share no mutable simulation
// state. Warm exploits this to precompute cells on a bounded worker pool;
// the figure tables themselves are always assembled serially, so their
// output is byte-identical whether or not the session was warmed.
type Session struct {
	cfg Config

	// hwpfFactory builds the per-machine prefetcher when cfg.HWPF is set;
	// hwpfErr holds the scheme-resolution error reported by every cell
	// computation (NewSession cannot fail, so validation is deferred).
	hwpfFactory func() machine.HWPrefetcher
	hwpfErr     error

	mu       sync.Mutex
	inflight map[any]*flight

	profiles   map[string]*core.ProfileRun
	groups     map[groupKey][]*core.ProfileRun
	cleans     map[string]core.RunStats
	speedups   map[string]float64
	runs       map[runKey]*measured
	classes    map[string]*classBuckets
	arenas     map[string]arenaCells
	pathsCells map[string]*PathsCell

	// measureRuns counts the simulations the run memo has executed, and
	// profileRuns the profiling executions the group memo has.
	measureRuns atomic.Int64
	profileRuns atomic.Int64
}

// groupKey identifies one profiling execution: an instrumented program, by
// ir.Fingerprint, on one workload input, profiled for the cells of one
// profile group (see profileGroup), whose runtimes it binds. The group's
// first cell is the primary and the rest are lanes. cells joins the
// group's cell names, so a cell outside the paper's method table that
// happens to build a grouped binary still gets an execution of its own.
type groupKey struct {
	workload string
	in       core.Input
	prog     [32]byte
	cells    string
}

// runKey identifies one measurement run: a program, by ir.Fingerprint, on
// one workload input under one observation. The session's machine
// configuration is fixed, so it is not part of the key. obs is "" for an
// unobserved run and otherwise the run label the collector's trace events
// carry (see Session.observation).
type runKey struct {
	workload string
	in       core.Input
	prog     [32]byte
	obs      string
}

// measured is one memoised measurement run, with its effectiveness
// collector when the run was observed.
type measured struct {
	run core.RunStats
	col *obs.Collector
}

// flight is one in-progress computation shared by concurrent callers of the
// same memo key.
type flight struct {
	done chan struct{}
	val  any
	err  error
}

// NewSession returns an empty session.
func NewSession(cfg Config) *Session {
	s := &Session{
		cfg:        cfg,
		inflight:   make(map[any]*flight),
		profiles:   make(map[string]*core.ProfileRun),
		groups:     make(map[groupKey][]*core.ProfileRun),
		cleans:     make(map[string]core.RunStats),
		speedups:   make(map[string]float64),
		runs:       make(map[runKey]*measured),
		classes:    make(map[string]*classBuckets),
		arenas:     make(map[string]arenaCells),
		pathsCells: make(map[string]*PathsCell),
	}
	if cfg.HWPF != "" {
		if _, err := hwpf.NewScheme(cfg.HWPF, cfg.HWPFConfig); err != nil {
			s.hwpfErr = err
		} else {
			scheme, hcfg := cfg.HWPF, cfg.HWPFConfig
			s.hwpfFactory = func() machine.HWPrefetcher {
				p, _ := hwpf.NewScheme(scheme, hcfg)
				return p
			}
		}
	}
	return s
}

// do memoises compute under key with per-key singleflight: concurrent
// callers of the same key block on one computation instead of duplicating
// it. lookup and store run under the session lock and read/write the memo
// map for the key's kind. Errors are propagated to every waiter of the
// flight but not memoised, so a later caller retries and reports the error
// itself.
//
// Cancellation is per caller: a waiter whose ctx expires stops waiting
// (the computation keeps running for whoever else wants it), and a waiter
// that receives a cancellation error from someone else's flight retries
// the computation under its own, still-live ctx.
func (s *Session) do(ctx context.Context, key any, lookup func() (any, bool), store func(any), compute func() (any, error)) (any, error) {
	if s.hwpfErr != nil {
		return nil, s.hwpfErr
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		s.mu.Lock()
		if v, ok := lookup(); ok {
			s.mu.Unlock()
			return v, nil
		}
		if f, ok := s.inflight[key]; ok {
			s.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if isCancellation(f.err) && ctx.Err() == nil {
				continue // the computing caller was cancelled; we were not
			}
			return f.val, f.err
		}
		f := &flight{done: make(chan struct{})}
		s.inflight[key] = f
		s.mu.Unlock()

		f.val, f.err = compute()

		s.mu.Lock()
		if f.err == nil {
			store(f.val)
		}
		delete(s.inflight, key)
		s.mu.Unlock()
		close(f.done)
		return f.val, f.err
	}
}

// isCancellation reports whether err is a context or simulator-interrupt
// cancellation rather than a real pipeline failure.
func isCancellation(err error) bool {
	return err != nil && (errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, machine.ErrInterrupted))
}

// mcfg returns the session's machine configuration with ctx's cancellation
// threaded in as the simulator interrupt channel, so a cancelled request
// aborts a multi-second simulation within a few tens of thousands of
// simulated instructions instead of running it to completion.
func (s *Session) mcfg(ctx context.Context) machine.Config {
	c := s.cfg.Machine
	c.Interrupt = ctx.Done()
	if s.hwpfFactory != nil {
		c.NewHWPrefetch = s.hwpfFactory
	}
	return c
}

// ctxErr rewrites a simulator interrupt into the ctx error that caused it,
// so callers see context.Canceled / DeadlineExceeded rather than the
// machine-level mechanism.
func ctxErr(ctx context.Context, err error) error {
	if err != nil && errors.Is(err, machine.ErrInterrupted) {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
	}
	return err
}

func (s *Session) workload(name string) (core.Workload, error) {
	w := workloads.Get(name)
	if w == nil {
		// The ground-truth kernels are deliberately unregistered (they
		// would change Figures 15-25); the paths figure reaches them here.
		switch name {
		case workloads.BranchyName:
			return workloads.Branchy(), nil
		case workloads.WeaveName:
			return workloads.Weave(), nil
		}
		return nil, fmt.Errorf("experiments: unknown workload %q", name)
	}
	return w, nil
}

// ClassifyProfile runs the feedback pass of workload wname over an
// externally supplied profile — a store aggregate or an online window
// snapshot — under the session's prefetch options (wsst additionally
// enables weak-single-stride insertion). Unlike the figure cells it is
// deliberately not memoised: the online PGO loop classifies a freshly
// decayed snapshot every round, so no two calls see the same input.
func (s *Session) ClassifyProfile(wname string, prof *profile.Combined, wsst bool) (*prefetch.Result, error) {
	w, err := s.workload(wname)
	if err != nil {
		return nil, err
	}
	opts := s.cfg.Prefetch
	if wsst {
		opts.EnableWSST = true
	}
	return prefetch.Apply(w.Program(), prof, opts)
}

// Profile returns the memoised profiling run of the workload under the
// given method and input. The cells of one profile group (see
// profileGroup) share one execution: the first caller runs the whole group
// in one core.ProfilePass, its other members riding as lanes, under a
// singleflight key of the workload, the input, the fingerprint of the
// instrumented program and the group's cells (see groupKey). Every
// member's run equals its own ProfilePass.
func (s *Session) Profile(ctx context.Context, wname string, m MethodSpec, in core.Input) (*core.ProfileRun, error) {
	key := profileKey(wname, m.Name, in)
	s.mu.Lock()
	pr, ok := s.profiles[key]
	s.mu.Unlock()
	if ok {
		return pr, nil
	}
	w, err := s.workload(wname)
	if err != nil {
		return nil, err
	}
	group, idx := profileGroup(w, m, in)
	res, err := instrument.Instrument(w.Program(), group[0].Opts)
	if err != nil {
		return nil, err
	}
	gkey := groupKey{workload: wname, in: in, prog: ir.Fingerprint(res.Prog)}
	for _, g := range group {
		gkey.cells += g.Name + "|"
	}
	v, err := s.do(ctx, gkey,
		func() (any, bool) { runs, ok := s.groups[gkey]; return runs, ok },
		func(v any) {
			runs := v.([]*core.ProfileRun)
			s.groups[gkey] = runs
			for i, g := range group {
				s.profiles[profileKey(wname, g.Name, in)] = runs[i]
			}
		},
		func() (any, error) {
			twins := make([]instrument.Options, 0, len(group)-1)
			for _, g := range group[1:] {
				twins = append(twins, g.Opts)
			}
			s.profileRuns.Add(1)
			pr, err := core.ProfilePass(w, in, group[0].Opts, s.mcfg(ctx), twins...)
			if err != nil {
				return nil, ctxErr(ctx, err)
			}
			runs := append([]*core.ProfileRun{pr}, pr.Lanes...)
			pr.Lanes = nil
			return runs, nil
		})
	if err != nil {
		return nil, err
	}
	return v.([]*core.ProfileRun)[idx], nil
}

// profileKey is the memo key of one profile cell.
func profileKey(wname, method string, in core.Input) string {
	return "profile|" + wname + "|" + method + "|" + in.Name
}

// profileGroup returns the profile cells one execution computes together
// with m's on input in, and m's index among them. On the workload's train
// input a paper method groups with its sample-* twin, exact first: sampling
// happens inside the stride runtime, so both instrument the same binary
// (PaperMethods lists the exact methods, then their sampled variants in
// the same order). Every other cell — edge-only, the ref-input profiles,
// the paths method — profiles alone.
func profileGroup(w core.Workload, m MethodSpec, in core.Input) ([]MethodSpec, int) {
	if in == w.Train() {
		methods := PaperMethods()
		n := len(methods) / 2
		for i, pm := range methods {
			if pm == m {
				return []MethodSpec{methods[i%n], methods[i%n+n]}, i / n
			}
		}
	}
	return []MethodSpec{m}, 0
}

// Clean returns the memoised uninstrumented run of the workload on input.
func (s *Session) Clean(ctx context.Context, wname string, in core.Input) (core.RunStats, error) {
	key := "clean|" + wname + "|" + in.Name
	v, err := s.do(ctx, key,
		func() (any, bool) { st, ok := s.cleans[key]; return st, ok },
		func(v any) { s.cleans[key] = v.(core.RunStats) },
		func() (any, error) {
			w, err := s.workload(wname)
			if err != nil {
				return nil, err
			}
			m, err := s.measure(ctx, w, w.Program(), in, "")
			if err != nil {
				return nil, err
			}
			return m.run, nil
		})
	if err != nil {
		return core.RunStats{}, err
	}
	return v.(core.RunStats), nil
}

// Speedup builds the prefetched binary from prof (labelled profLabel for
// memoisation) and returns its speedup over the clean binary on input in.
func (s *Session) Speedup(ctx context.Context, wname, profLabel string, prof *profile.Combined, in core.Input) (float64, error) {
	key := "speedup|" + wname + "|" + profLabel + "|" + in.Name
	v, err := s.do(ctx, key,
		func() (any, bool) { sp, ok := s.speedups[key]; return sp, ok },
		func(v any) { s.speedups[key] = v.(float64) },
		func() (any, error) {
			w, err := s.workload(wname)
			if err != nil {
				return nil, err
			}
			base, err := s.Clean(ctx, wname, in)
			if err != nil {
				return nil, err
			}
			fb, err := core.BuildPrefetched(w, prof, s.cfg.Prefetch)
			if err != nil {
				return nil, err
			}
			m, err := s.measure(ctx, w, fb.Prog, in, s.observation(key))
			if err != nil {
				return nil, err
			}
			if m.col != nil && s.cfg.Metrics != nil {
				rep := obs.BuildReport(key, m.col)
				rep.Workload = wname
				rep.Label = profLabel + "|" + in.Name
				s.cfg.Metrics.Register(rep)
			}
			if m.run.Ret != base.Ret {
				return nil, fmt.Errorf("experiments: %s: prefetched binary diverged (%d vs %d)",
					wname, m.run.Ret, base.Ret)
			}
			return float64(base.Stats.Cycles) / float64(m.run.Stats.Cycles), nil
		})
	if err != nil {
		return 0, err
	}
	return v.(float64), nil
}

// observation returns the run-memo observation for the prefetched cell
// labelled key. Unobserved sessions share plain runs, so a prefetched
// binary equal to the clean program reuses the clean run. Metrics-only
// sessions share one collector per distinct binary; each label still
// registers its own report from it. Traced runs stay per label, because
// every trace event is stamped with its cell's key.
func (s *Session) observation(key string) string {
	switch {
	case s.cfg.Trace != nil:
		return key
	case s.cfg.Metrics != nil:
		return "metrics"
	}
	return ""
}

// measure returns the memoised run of prog on workload w's input in.
// Runs are content-addressed: every caller that builds the same binary
// (equal ir.Fingerprint) for the same input and observation shares one
// simulation, whatever label it computes. A non-empty observe attaches an
// effectiveness collector whose trace events carry observe as their run.
// Callers hash prog only on a miss of their own memo, so a memo hit never
// pays for the fingerprint.
func (s *Session) measure(ctx context.Context, w core.Workload, prog *ir.Program, in core.Input, observe string) (*measured, error) {
	key := runKey{workload: w.Name(), in: in, prog: ir.Fingerprint(prog), obs: observe}
	v, err := s.do(ctx, key,
		func() (any, bool) { m, ok := s.runs[key]; return m, ok },
		func(v any) { s.runs[key] = v.(*measured) },
		func() (any, error) {
			mcfg := s.mcfg(ctx)
			var col *obs.Collector
			if observe != "" {
				col = obs.NewCollector(s.cfg.Trace.WithRun(observe))
				mcfg.Obs = col
			}
			s.measureRuns.Add(1)
			run, err := core.Execute(prog, w, in, mcfg)
			if err != nil {
				return nil, ctxErr(ctx, err)
			}
			return &measured{run: run, col: col}, nil
		})
	if err != nil {
		return nil, err
	}
	return v.(*measured), nil
}

// warmTasks returns one closure per pipeline cell the named figures need.
// Figures not in figs are skipped; an empty figs selects all of them. Task
// errors are deliberately dropped: errors are not memoised, so the serial
// figure assembly recomputes the failing cell and reports the error with
// its usual context.
func (s *Session) warmTasks(ctx context.Context, figs map[string]bool) []func() {
	want := func(names ...string) bool {
		if len(figs) == 0 {
			return true
		}
		for _, n := range names {
			if figs[n] {
				return true
			}
		}
		return false
	}
	var tasks []func()
	for _, name := range s.cfg.names() {
		name := name
		w := workloads.Get(name)
		if w == nil {
			continue // the serial pass reports unknown workloads
		}
		train, ref := w.Train(), w.Ref()
		if want("16", "17", "23", "24", "25") {
			tasks = append(tasks, func() { _, _ = s.Clean(ctx, name, ref) })
		}
		if want("16", "20", "21", "22") {
			for _, m := range PaperMethods() {
				m := m
				tasks = append(tasks, func() {
					pr, err := s.Profile(ctx, name, m, train)
					if err != nil || !want("16") {
						return
					}
					_, _ = s.Speedup(ctx, name, m.Name+"-train", pr.Profiles, ref)
				})
			}
		}
		if want("20") {
			tasks = append(tasks, func() { _, _ = s.Profile(ctx, name, edgeOnlySpec, train) })
		}
		if want("18", "19") {
			tasks = append(tasks, func() { _, _ = s.classify(ctx, name) })
		}
		// The arena is opt-in only: it is not part of the paper's figure
		// set, so the empty-figs "warm everything" default must not compute
		// it (RunAll and `-figure all` stay byte-identical to pre-arena).
		// One task per workload: a single lane execution computes the
		// whole arena row (see arenaRow).
		if figs["arena"] {
			tasks = append(tasks, func() { _, _ = s.arenaRow(ctx, name) })
		}
		// The paths figure is opt-in for the same reason as the arena.
		if figs["paths"] {
			tasks = append(tasks, func() { _, _ = s.PathsCell(ctx, name) })
		}
		if want("23", "24", "25") {
			tasks = append(tasks, func() {
				m := sampleEdgeCheck()
				trainPR, err := s.Profile(ctx, name, m, train)
				if err != nil {
					return
				}
				refPR, err := s.Profile(ctx, name, m, ref)
				if err != nil {
					return
				}
				for _, spec := range sensitivitySpecs() {
					if !want(spec.fig) {
						continue
					}
					for i, p := range spec.mix(trainPR, refPR) {
						_, _ = s.Speedup(ctx, name, spec.title+spec.cols[i], p, ref)
					}
				}
			})
		}
	}
	return tasks
}

// Warm precomputes the pipeline cells the named figures ("16" through "25";
// none selects all) will need, fanning the independent (workload, method,
// input) cells out over a pool of up to jobs workers (jobs <= 0 selects
// GOMAXPROCS). Warming is purely an optimisation: the figure methods
// produce byte-identical tables — computed from the memoised cells — with
// or without it. Cancelling ctx stops dispatching new cells (and aborts
// the in-flight ones); Warm then returns early with the memo partially
// populated, which is safe for the same reason warming is optional.
func (s *Session) Warm(ctx context.Context, jobs int, figs ...string) {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	// The per-program CFG analysis is the one stage that writes to shared
	// workload IR; run it before the fan-out so workers only read.
	for _, name := range s.cfg.names() {
		if w := workloads.Get(name); w != nil {
			core.EnsureAnalyzed(w.Program())
		}
	}
	sel := make(map[string]bool, len(figs))
	for _, f := range figs {
		sel[f] = true
	}
	if sel["paths"] {
		core.EnsureAnalyzed(workloads.Branchy().Program())
		core.EnsureAnalyzed(workloads.Weave().Program())
	}
	tasks := s.warmTasks(ctx, sel)
	if jobs > len(tasks) {
		jobs = len(tasks)
	}
	if jobs <= 1 {
		for _, fn := range tasks {
			if ctx.Err() != nil {
				return
			}
			fn()
		}
		return
	}
	ch := make(chan func())
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for fn := range ch {
				fn()
			}
		}()
	}
dispatch:
	for _, fn := range tasks {
		select {
		case ch <- fn:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(ch)
	wg.Wait()
}
