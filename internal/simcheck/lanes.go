package simcheck

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"

	"stridepf/internal/cache"
	"stridepf/internal/core"
	"stridepf/internal/hwpf"
	"stridepf/internal/instrument"
	"stridepf/internal/ir"
	"stridepf/internal/irgen"
	"stridepf/internal/machine"
	"stridepf/internal/obs"
	"stridepf/internal/profile"
	"stridepf/internal/stride"
)

// laneHierarchies are the cache configurations the lanes property sweeps:
// the default hierarchy, a small two-level one and the default with a TLB.
func laneHierarchies() []cache.HierarchyConfig {
	tlb := cache.ItaniumConfig()
	tc := cache.ItaniumTLBConfig()
	tlb.TLB = &tc
	small := cache.HierarchyConfig{
		Levels: []cache.Config{
			{Name: "L1D", Size: 4 << 10, Assoc: 2, LineSize: 64, HitLatency: 2},
			{Name: "L2", Size: 32 << 10, Assoc: 4, LineSize: 64, HitLatency: 12},
		},
		MemLatency:   160,
		StoreLatency: 2,
		MaxInFlight:  8,
	}
	return []cache.HierarchyConfig{cache.ItaniumConfig(), small, tlb}
}

// schemeFactory returns a factory for an enabled scheme's prefetcher, or
// nil for the empty scheme (no prefetcher).
func schemeFactory(scheme string) func() machine.HWPrefetcher {
	if scheme == "" {
		return nil
	}
	return func() machine.HWPrefetcher {
		p, _ := hwpf.NewScheme(scheme, hwpf.Config{})
		return p
	}
}

// laneRun is one memory system's observable account of a run: machine
// statistics (its own cycles), hierarchy counters, scheme counters and the
// closed collector.
type laneRun struct {
	Stats machine.Stats
	Hier  [7]uint64
	HWPF  hwpf.Counters
	Obs   obs.Collector
}

func accountOf(st machine.Stats, h *cache.Hierarchy, pf machine.HWPrefetcher, col *obs.Collector) laneRun {
	r := laneRun{Stats: st, Obs: *col, Hier: [7]uint64{h.Loads, h.Stores, h.Prefetches,
		h.PrefetchDrops, h.PrefetchLate, h.PrefetchUseful, h.DemandMissCycles}}
	if p, ok := pf.(hwpf.Prefetcher); ok {
		r.HWPF = p.Counters()
	}
	return r
}

// CheckLanes generates a program from (seed, cfg) and runs it once with
// every (hierarchy, scheme) configuration attached — the base, small and
// TLB hierarchies, each without a prefetcher and with every registered
// scheme — the first as the primary memory system and the rest as lanes,
// each with its own collector. Every lane must equal an independent run of
// its configuration on its own machine: statistics including cycles,
// hierarchy counters, scheme counters and the collector after FinishObs
// (deep-equal, reconciled). The lane run is repeated under the shadow
// models. The hooked half (checkHookedLanes) then profiles the program
// with a stride runtime per lane.
func CheckLanes(seed uint64, cfg irgen.Config) error {
	prog := irgen.Generate(seed, cfg)
	type config struct {
		hier   cache.HierarchyConfig
		scheme string
	}
	var cfgs []config
	for _, h := range laneHierarchies() {
		cfgs = append(cfgs, config{hier: h})
		for _, s := range hwpf.Schemes() {
			cfgs = append(cfgs, config{hier: h, scheme: s})
		}
	}
	want := make([]laneRun, len(cfgs))
	for i, c := range cfgs {
		col := obs.NewCollector(nil)
		m, err := machine.New(prog, machine.WithHierarchy(c.hier),
			machine.WithHWPrefetchFactory(schemeFactory(c.scheme)), machine.WithObs(col))
		if err != nil {
			return err
		}
		if _, err := m.Run(); err != nil {
			return fmt.Errorf("standalone run %d (%s): %w", i, c.scheme, err)
		}
		m.FinishObs()
		if err := col.Reconcile(); err != nil {
			return fmt.Errorf("standalone run %d (%s): %w", i, c.scheme, err)
		}
		want[i] = accountOf(m.Stats(), m.Hier, m.HWPrefetch(), col)
	}

	for _, checked := range []bool{false, true} {
		pcol := obs.NewCollector(nil)
		var lanes []machine.Lane
		for _, c := range cfgs[1:] {
			lanes = append(lanes, machine.Lane{Hierarchy: c.hier,
				NewHWPrefetch: schemeFactory(c.scheme), Obs: obs.NewCollector(nil)})
		}
		opts := []machine.Option{machine.WithHierarchy(cfgs[0].hier), machine.WithObs(pcol), machine.WithLanes(lanes...)}
		if checked {
			opts = append(opts, machine.WithSelfCheck())
		}
		m, err := machine.New(prog, opts...)
		if err != nil {
			return err
		}
		if _, err := m.Run(); err != nil {
			return fmt.Errorf("lane run (self-check %v): %w", checked, err)
		}
		m.FinishObs()
		got := []laneRun{accountOf(m.Stats(), m.Hier, m.HWPrefetch(), pcol)}
		for i, v := range m.Lanes() {
			if err := lanes[i].Obs.Reconcile(); err != nil {
				return fmt.Errorf("lane %d: %w", i+1, err)
			}
			got = append(got, accountOf(v.Stats, v.Hier, v.HWPrefetch, lanes[i].Obs))
		}
		for i := range cfgs {
			if !reflect.DeepEqual(got[i], want[i]) {
				return fmt.Errorf("lane %d (scheme %q, self-check %v) differs from its standalone run:\nlane       %+v\nstandalone %+v",
					i, cfgs[i].scheme, checked, got[i], want[i])
			}
		}
	}

	return checkHookedLanes(seed, prog)
}

// progWorkload runs a generated program as a core.Workload. Generated
// programs take no input, so Setup installs nothing.
type progWorkload struct{ prog *ir.Program }

func (w progWorkload) Name() string                       { return "irgen" }
func (w progWorkload) Description() string                { return "generated program" }
func (w progWorkload) Program() *ir.Program               { return w.prog }
func (w progWorkload) Setup(*machine.Machine, core.Input) {}
func (w progWorkload) Train() core.Input                  { return core.Input{Name: "train"} }
func (w progWorkload) Ref() core.Input                    { return core.Input{Name: "ref"} }

// profAccount is a profiling run's observable account: the profile's codec
// bytes, the run statistics (cycles, hook calls, cache and scheme
// counters, per-load counts) and the runtime's counters.
type profAccount struct {
	Profile                                  string
	Stats                                    core.RunStats
	ProcessedRefs, LFUCalls, HookInvocations int64
}

func profAccountOf(pr *core.ProfileRun) (profAccount, error) {
	var buf bytes.Buffer
	if err := profile.DefaultCodec.Encode(&buf, pr.Profiles); err != nil {
		return profAccount{}, err
	}
	return profAccount{Profile: buf.String(), Stats: pr.Stats, ProcessedRefs: pr.ProcessedRefs,
		LFUCalls: pr.LFUCalls, HookInvocations: pr.HookInvocations}, nil
}

// checkHookedLanes instruments prog with a seed-drawn method and profiles
// it once with an exact stride runtime on the primary and a sampled and an
// enhanced one as lanes (core.ProfilePass with twins). Each run must equal
// a standalone ProfilePass of its configuration: profile bytes, statistics
// including cycles and hook calls, cache counters and the runtime's
// counters. It runs with a seed-drawn hardware prefetcher, and with none
// on the program's own software prefetches, where every lane keeps its own
// hierarchy, and with neither on the program stripped of its prefetches,
// where every lane shares the primary's; each also under the shadow
// models. A lane with an unbound hook must fail Run before the first
// instruction.
func checkHookedLanes(seed uint64, prog *ir.Program) error {
	method := []instrument.Method{instrument.NaiveAll, instrument.NaiveLoop, instrument.EdgeCheck}[seed%3]
	configs := []stride.Config{
		{},
		{FineInterval: 3, ChunkSkip: 40, ChunkProfile: 20},
		{Enhanced: true},
	}
	opts := make([]instrument.Options, len(configs))
	for i, c := range configs {
		opts[i] = instrument.Options{Method: method, Stride: c}
	}
	scheme := hwpf.Schemes()[seed%uint64(len(hwpf.Schemes()))]
	for _, mode := range []struct {
		scheme string
		prog   *ir.Program
		shared bool
	}{{scheme, prog, false}, {"", prog, !hasOp(prog, ir.OpPrefetch)}, {"", stripPrefetches(prog), true}} {
		w := progWorkload{mode.prog}
		if err := checkLaneSharing(w, opts, mode.scheme, mode.shared); err != nil {
			return err
		}
		for _, checked := range []bool{false, true} {
			mcfg := machine.Config{NewHWPrefetch: schemeFactory(mode.scheme), SelfCheck: checked}
			want := make([]profAccount, len(opts))
			for i, o := range opts {
				pr, err := core.ProfilePass(w, w.Train(), o, mcfg)
				if err != nil {
					return fmt.Errorf("standalone profile %d (scheme %q): %w", i, mode.scheme, err)
				}
				if want[i], err = profAccountOf(pr); err != nil {
					return err
				}
			}
			pr, err := core.ProfilePass(w, w.Train(), opts[0], mcfg, opts[1:]...)
			if err != nil {
				return fmt.Errorf("lane profile (scheme %q, self-check %v): %w", mode.scheme, checked, err)
			}
			if len(pr.Lanes) != len(opts)-1 {
				return fmt.Errorf("lane profile returned %d lane runs, want %d", len(pr.Lanes), len(opts)-1)
			}
			for i, r := range append([]*core.ProfileRun{pr}, pr.Lanes...) {
				got, err := profAccountOf(r)
				if err != nil {
					return err
				}
				if !reflect.DeepEqual(got, want[i]) {
					return fmt.Errorf("hooked lane %d (%s, %+v, scheme %q, self-check %v) differs from its standalone profile:\nlane       %+v\nstandalone %+v",
						i, method, configs[i], mode.scheme, checked, got, want[i])
				}
			}
		}
	}
	return nil
}

// checkLaneSharing builds the lane machine ProfilePass would and checks
// that the lanes share the primary's hierarchy exactly when shared is
// set, and that a lane with an unbound hook fails Run before the first
// instruction.
func checkLaneSharing(w progWorkload, opts []instrument.Options, scheme string, shared bool) error {
	res, err := instrument.Instrument(w.prog, opts[0])
	if err != nil {
		return fmt.Errorf("instrument: %w", err)
	}
	var lanes []machine.Lane
	for _, o := range opts[1:] {
		tres, err := instrument.Instrument(w.prog, o)
		if err != nil {
			return fmt.Errorf("instrument: %w", err)
		}
		lanes = append(lanes, machine.Lane{NewHWPrefetch: schemeFactory(scheme),
			Hooks: map[int64]machine.HookFunc{stride.HookID: tres.Runtime.Hook()}})
	}
	m, err := machine.New(res.Prog, machine.WithHWPrefetchFactory(schemeFactory(scheme)), machine.WithLanes(lanes...))
	if err != nil {
		return err
	}
	for i, v := range m.Lanes() {
		if (v.Hier == m.Hier) != shared {
			return fmt.Errorf("scheme %q: lane %d shares the primary's hierarchy: %v, want %v",
				scheme, i, v.Hier == m.Hier, shared)
		}
	}
	if !hasOp(res.Prog, ir.OpHook) {
		return nil
	}
	lanes[len(lanes)-1].Hooks = nil
	m, err = machine.New(res.Prog, machine.WithHWPrefetchFactory(schemeFactory(scheme)), machine.WithLanes(lanes...))
	if err != nil {
		return err
	}
	res.Runtime.Register(m)
	_, err = m.Run()
	want := fmt.Sprintf("lane %d:", len(lanes)-1)
	if err == nil || !strings.Contains(err.Error(), want) {
		return fmt.Errorf("a lane with an unbound hook: Run error %v, want one naming %q", err, want)
	}
	if m.Stats().Instrs != 0 {
		return fmt.Errorf("a lane with an unbound hook ran %d instructions before failing", m.Stats().Instrs)
	}
	return nil
}

// stripPrefetches returns a copy of prog without its OpPrefetch sites.
func stripPrefetches(prog *ir.Program) *ir.Program {
	c := ir.CloneProgram(prog)
	for _, f := range c.Funcs {
		for _, b := range f.Blocks {
			kept := b.Instrs[:0]
			for _, in := range b.Instrs {
				if in.Op != ir.OpPrefetch {
					kept = append(kept, in)
				}
			}
			b.Instrs = kept
		}
	}
	return c
}

// hasOp reports whether prog has an instruction of opcode op.
func hasOp(prog *ir.Program, op ir.Opcode) bool {
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == op {
					return true
				}
			}
		}
	}
	return false
}
