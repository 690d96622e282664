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
	// Workloads is the session's default roster of benchmarks by name;
	// empty selects all twelve. Roster views select others.
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
// A session is a default roster of workloads over one memo. Roster returns
// a view with another roster over the same memo: every cell is keyed by its
// workload, so views over overlapping rosters share their simulations, and
// the memo stays bounded by workloads x methods x inputs however many
// rosters ask for figures.
//
// A session is safe for concurrent use: each memoised entry is computed at
// most once even under concurrent callers (per-key singleflight), and every
// cell — profile, clean run, speedup, classification — builds its own
// machine, heap and cache hierarchy, so cells share no mutable simulation
// state. Warm exploits this to compute figures on a bounded worker pool;
// the figure tables themselves are always assembled serially, so their
// output is byte-identical whether or not the session was warmed.
type Session struct {
	// roster selects the view's workloads; empty selects all registered.
	roster []string
	// spawn is set on the views Warm computes: it runs fn on a goroutine of
	// its own if one of Warm's slots is free, and reports whether it did
	// (see row).
	spawn func(fn func()) bool
	*memo
}

// memo is what every view of a session shares: the configuration and one
// map of finished cells beside the table of cells in flight. A cell's key
// is a groupKey, a runKey or a string led by the cell's kind ("profile|",
// "clean|", "speedup|", "classify|", "arena|", "paths|") and its workload.
type memo struct {
	// cfg.Workloads is unused: each view carries its own roster.
	cfg Config

	// hwpfFactory builds the per-machine prefetcher when cfg.HWPF is set;
	// hwpfErr holds the scheme-resolution error reported by every cell
	// computation (NewSession cannot fail, so validation is deferred).
	hwpfFactory func() machine.HWPrefetcher
	hwpfErr     error

	mu       sync.Mutex
	cells    map[any]any
	inflight map[any]*flight

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

// NewSession returns an empty session over cfg.Workloads.
func NewSession(cfg Config) *Session {
	m := &memo{cfg: cfg, cells: make(map[any]any), inflight: make(map[any]*flight)}
	m.cfg.Workloads = nil
	if cfg.HWPF != "" {
		if _, err := hwpf.NewScheme(cfg.HWPF, hwpf.Config{}); err != nil {
			m.hwpfErr = err
		} else {
			scheme := cfg.HWPF
			m.hwpfFactory = func() machine.HWPrefetcher {
				p, _ := hwpf.NewScheme(scheme, hwpf.Config{})
				return p
			}
		}
	}
	return &Session{roster: cfg.Workloads, memo: m}
}

// Roster returns a view of the session whose figures cover names (empty
// selects every registered workload). The view shares the session's memo,
// so a cell both compute is computed once.
func (s *Session) Roster(names []string) *Session {
	return &Session{roster: names, memo: s.memo}
}

// names returns the view's workloads in row order.
func (s *Session) names() []string {
	if len(s.roster) > 0 {
		return s.roster
	}
	return workloads.Names()
}

// do memoises compute under key with per-key singleflight: concurrent
// callers of the same key block on one computation instead of duplicating
// it. Errors are propagated to every waiter of the flight but not
// memoised, so a later caller retries and reports the error itself.
//
// Cancellation is per caller: a waiter whose ctx expires stops waiting
// (the computation keeps running for whoever else wants it), and a waiter
// that receives a cancellation error from someone else's flight retries
// the computation under its own, still-live ctx.
func (s *Session) do(ctx context.Context, key any, compute func() (any, error)) (any, error) {
	if s.hwpfErr != nil {
		return nil, s.hwpfErr
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		s.mu.Lock()
		if v, ok := s.cells[key]; ok {
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
			s.cells[key] = f.val
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

// workload resolves a workload by name. Every cell reaches its program
// through here, so here the program's CFG analysis runs first: it is the
// one stage that writes to shared workload IR, and after it concurrent
// cells only read.
func (s *Session) workload(name string) (core.Workload, error) {
	w := workloads.Get(name)
	if w == nil {
		// The ground-truth kernels are deliberately unregistered (they
		// would change Figures 15-25); the paths figure reaches them here.
		switch name {
		case workloads.BranchyName:
			w = workloads.Branchy()
		case workloads.WeaveName:
			w = workloads.Weave()
		default:
			return nil, fmt.Errorf("experiments: unknown workload %q", name)
		}
	}
	core.EnsureAnalyzed(w.Program())
	return w, nil
}

// Profile returns the memoised profiling run of the workload under the
// given method and input. The cells of one profile group (see
// profileGroup) share one execution: each cell computes through the group
// memo, whose first caller runs the whole group in one core.ProfilePass,
// its other members riding as lanes, under a key of the workload, the
// input, the fingerprint of the instrumented program and the group's cells
// (see groupKey). Every member's run equals its own ProfilePass.
func (s *Session) Profile(ctx context.Context, wname string, m MethodSpec, in core.Input) (*core.ProfileRun, error) {
	v, err := s.do(ctx, "profile|"+wname+"|"+m.Name+"|"+in.Name, func() (any, error) {
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
		runs, err := s.do(ctx, gkey, func() (any, error) {
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
		return runs.([]*core.ProfileRun)[idx], nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*core.ProfileRun), nil
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
	v, err := s.do(ctx, "clean|"+wname+"|"+in.Name, func() (any, error) {
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
	v, err := s.do(ctx, key, func() (any, error) {
		w, err := s.workload(wname)
		if err != nil {
			return nil, err
		}
		base, err := s.Clean(ctx, wname, in)
		if err != nil {
			return nil, err
		}
		fb, err := prefetch.Apply(w.Program(), prof, s.cfg.Prefetch)
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
	v, err := s.do(ctx, key, func() (any, error) {
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

// Warm precomputes the named figures ("16" through "25", "arena" or
// "paths"; none selects 16 through 25) with up to jobs goroutines running
// at once (jobs <= 0 selects GOMAXPROCS). Each task computes one figure
// over a one-workload roster, figure by figure, so warming asks for
// exactly the cells the figure code does. A slot left free helps a running
// task with its table row (see row), so a one-workload roster still fans
// out. Figure 15 has no cells and is skipped; the arena and paths figures
// are computed only when named.
//
// Warming is purely an optimisation: the figure methods produce
// byte-identical tables, computed from the memoised cells, with or without
// it. Task errors are dropped: errors are not memoised, so the serial
// assembly recomputes a failing cell and reports it. Cancelling ctx stops
// dispatching tasks (and aborts the running ones); Warm then returns early
// with the memo partially populated, which is safe for the same reason.
func (s *Session) Warm(ctx context.Context, jobs int, figs ...string) {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if len(figs) == 0 {
		figs = FigureNames()
	}
	// slots holds one token per running task or row helper.
	slots := make(chan struct{}, jobs)
	var running sync.WaitGroup
	run := func(fn func()) {
		running.Add(1)
		go func() {
			defer func() { <-slots; running.Done() }()
			fn()
		}()
	}
	spawn := func(fn func()) bool {
		select {
		case slots <- struct{}{}:
			run(fn)
			return true
		default:
			return false
		}
	}
dispatch:
	for _, fig := range figs {
		if fig == "15" {
			continue
		}
		for _, name := range s.names() {
			v := &Session{roster: []string{name}, spawn: spawn, memo: s.memo}
			select {
			case slots <- struct{}{}:
				run(func() { _, _ = v.Figure(ctx, fig) })
			case <-ctx.Done():
				break dispatch
			}
		}
	}
	running.Wait()
}

// row returns cell(i) for each of a table row's n columns. base, when not
// nil, fetches the cell every column is relative to, such as the clean run
// a speedup divides by: it comes first, and the columns read its value
// back from the memo. Each unit of the row, base or a column, goes to the
// next taker. On a view Warm computes, every taker first offers the rest
// of the row to a free Warm slot, so a one-workload figure still fans its
// columns out. Otherwise the owner takes every unit in order, stopping at
// the first error. Either way the error returned is the first in order.
func (s *Session) row(n int, base func() error, cell func(i int) (float64, error)) ([]float64, error) {
	if base == nil {
		base = func() error { return nil }
	}
	// Unit 0 is base and unit i+1 is column i.
	vals, errs := make([]float64, n), make([]error, n+1)
	var next atomic.Int64
	var helpers sync.WaitGroup
	var take func()
	take = func() {
		for {
			u := int(next.Add(1)) - 1
			if u > n {
				return
			}
			if s.spawn != nil && u < n {
				helpers.Add(1)
				if !s.spawn(func() { defer helpers.Done(); take() }) {
					helpers.Done()
				}
			}
			if u == 0 {
				errs[0] = base()
			} else {
				vals[u-1], errs[u] = cell(u - 1)
			}
			if errs[u] != nil {
				return
			}
		}
	}
	take()
	helpers.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return vals, nil
}
