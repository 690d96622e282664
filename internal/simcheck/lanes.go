package simcheck

import (
	"errors"
	"fmt"
	"reflect"

	"stridepf/internal/cache"
	"stridepf/internal/hwpf"
	"stridepf/internal/instrument"
	"stridepf/internal/ir"
	"stridepf/internal/irgen"
	"stridepf/internal/machine"
	"stridepf/internal/obs"
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
// models. Lanes on a program with OpHook sites must fail Run up front with
// *machine.LaneHookError.
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

	res, err := instrument.Instrument(prog, instrument.Options{Method: instrument.NaiveAll})
	if err != nil {
		return fmt.Errorf("instrument: %w", err)
	}
	m, err := machine.New(res.Prog, machine.WithLanes(machine.Lane{}))
	if err != nil {
		return err
	}
	if res.Runtime != nil {
		res.Runtime.Register(m)
	}
	_, err = m.Run()
	var he *machine.LaneHookError
	switch {
	case errors.As(err, &he):
		if m.Stats().Instrs != 0 {
			return fmt.Errorf("lanes on a hooked program ran %d instructions before failing", m.Stats().Instrs)
		}
	case hasHook(res.Prog):
		return fmt.Errorf("lanes on a hooked program: Run error %v, want *machine.LaneHookError", err)
	}
	return nil
}

// hasHook reports whether prog has an OpHook site.
func hasHook(prog *ir.Program) bool {
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpHook {
					return true
				}
			}
		}
	}
	return false
}
