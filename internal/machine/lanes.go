package machine

import (
	"reflect"

	"stridepf/internal/cache"
	"stridepf/internal/obs"
)

// Lane is an extra memory system, with its own runtime hooks, that a
// machine drives in lockstep with its primary one (Config.Hierarchy,
// NewHWPrefetch, Obs and the hooks bound with Register). One execution of the
// program then yields the run each lane's configuration would have produced
// on its own machine: the instruction stream, registers and memory image
// depend neither on cache or prefetcher state nor on the hooks, so only the
// clock differs. With lanes attached, every hook — the primary's and the
// lanes' — must therefore write no registers and no simulated memory;
// stride.Runtime's writes neither.
//
// A lane's clock is the shared fixed-cost cycle count plus the lane's own
// stall and hook total, kept as a skew against the primary clock. Every
// OpHook site runs the primary's hook and then each lane's; inside a lane's
// hook, AddCycles, Now, Stats and Obs charge and read that lane's clock and
// collector.
//
// A lane normally keeps its own hierarchy. Every demand load, store,
// speculative load and software prefetch fans out to it from the step
// loop's memory handlers, so it sees exactly the call sequence a standalone
// run would give it: Load/Store/PrefetchClass(addr, now), then the
// prefetcher's Observe(pc, addr, hier, now+lat). With such lanes attached
// the translator leaves loads and stores unbatched, so each lane sees them
// one at a time. When no prefetch can ever be in flight — no hardware
// prefetcher on the machine or the lane, no enabled OpPrefetch in the
// program, no lane collector, and a hierarchy config equal to the
// primary's — every demand latency is independent of time. The lane then
// shares the primary's hierarchy and counters and stays out of the
// fan-out; only its hooks set it apart.
type Lane struct {
	// Hierarchy is the lane's cache configuration; the zero value selects
	// cache.ItaniumConfig.
	Hierarchy cache.HierarchyConfig
	// NewHWPrefetch, when non-nil, builds the lane's hardware prefetcher at
	// New time (a factory for the same reason as Config.NewHWPrefetch).
	NewHWPrefetch func() HWPrefetcher
	// Obs, when non-nil, collects the lane's prefetch-effectiveness
	// metrics; Machine.FinishObs closes it at the lane's own final cycle.
	Obs *obs.Collector
	// Hooks binds the lane's runtime hooks by ID, as Register binds the
	// primary's. Every hook ID the program names must be bound here too, or
	// Run fails before the first instruction.
	Hooks map[int64]HookFunc
}

// LaneView is one lane's account of the execution so far.
type LaneView struct {
	// Stats is the machine's statistics with the lane's own cycle count.
	Stats Stats
	// Hier is the lane's cache hierarchy (the primary's when shared).
	Hier *cache.Hierarchy
	// HWPrefetch is the lane's hardware prefetcher, or nil.
	HWPrefetch HWPrefetcher
}

// lane is the runtime state of one Lane.
type lane struct {
	// idx is the lane's position in Config.Lanes.
	idx   int
	hier  *cache.Hierarchy
	pf    HWPrefetcher
	obs   *obs.Collector
	hooks map[int64]HookFunc
	// skew is the lane's clock minus the primary's, modulo 2^64: the
	// difference of their stall and hook totals, which may be negative.
	skew uint64
}

// attachLanes builds the runtime state of cfg.Lanes: the lanes with a
// hierarchy of their own first, as m.fan, then those sharing the
// primary's. It runs after decoding, which records whether the program can
// prefetch.
func (m *Machine) attachLanes() {
	cfg := &m.cfg
	prefetching := m.pf != nil || (m.hasPrefetch && !m.noPf)
	var own, shared []lane
	for i, l := range cfg.Lanes {
		ln := lane{idx: i, obs: l.Obs, hooks: l.Hooks}
		hc := l.Hierarchy
		if len(hc.Levels) == 0 {
			hc = cache.ItaniumConfig()
		}
		if !prefetching && l.NewHWPrefetch == nil && l.Obs == nil && reflect.DeepEqual(hc, cfg.Hierarchy) {
			ln.hier = m.Hier
			shared = append(shared, ln)
			continue
		}
		ln.hier = cache.NewHierarchy(hc)
		if cfg.SelfCheck {
			ln.hier.EnableSelfCheck()
		}
		if l.Obs != nil {
			ln.hier.EnableObs(l.Obs)
		}
		if l.NewHWPrefetch != nil {
			ln.pf = l.NewHWPrefetch()
		}
		own = append(own, ln)
	}
	if len(own)+len(shared) == 0 {
		return
	}
	m.lanes = append(own, shared...)
	if len(own) > 0 {
		m.fan = m.lanes[:len(own)]
	}
}

// Lanes returns each lane's account of the execution, in Config.Lanes
// order (nil without lanes).
func (m *Machine) Lanes() []LaneView {
	if len(m.lanes) == 0 {
		return nil
	}
	out := make([]LaneView, len(m.lanes))
	for i := range m.lanes {
		l := &m.lanes[i]
		st := m.stats
		st.Cycles = m.cycles + l.skew
		out[l.idx] = LaneView{Stats: st, Hier: l.hier, HWPrefetch: l.pf}
	}
	return out
}

// laneHook returns what an OpHook site of id runs with lanes attached: the
// primary's hook fn, then each lane's with that lane current, so the
// clock accessors charge and read the lane's clock. The primary's hook
// charge is not a shared cost, so each lane's skew gives it back before
// the lane's own hook runs. Every lane must bind id (resolveHooks checks).
func (m *Machine) laneHook(id int64, fn HookFunc) HookFunc {
	fns := make([]HookFunc, len(m.lanes))
	for i := range m.lanes {
		fns[i] = m.lanes[i].hooks[id]
	}
	return func(mm *Machine, args []int64) {
		start := mm.cycles
		fn(mm, args)
		charged := mm.cycles - start
		for i, lf := range fns {
			l := &mm.lanes[i]
			l.skew -= charged
			mm.cur = l
			lf(mm, args)
		}
		mm.cur = nil
	}
}

// laneLoad presents a demand load to every lane with a hierarchy of its
// own. now is the primary clock at issue and lat the primary's latency;
// each lane issues at its own clock, moves its skew by the latency
// difference, and — when observe is set (program loads, not speculative
// ones) — feeds its prefetcher at the lane's completion time.
func (m *Machine) laneLoad(pc, addr, now, lat uint64, observe bool) {
	for i := range m.fan {
		l := &m.fan[i]
		t := now + l.skew
		ll := uint64(l.hier.Load(addr, t))
		l.skew += ll - lat
		if observe && l.pf != nil {
			l.pf.Observe(pc, addr, l.hier, t+ll)
		}
	}
}

// laneStore presents a store to every lane of the fan-out (see laneLoad).
func (m *Machine) laneStore(addr, now, lat uint64) {
	for i := range m.fan {
		l := &m.fan[i]
		l.skew += uint64(l.hier.Store(addr, now+l.skew)) - lat
	}
}

// lanePrefetch presents a software prefetch to every lane of the fan-out
// at its own clock.
func (m *Machine) lanePrefetch(addr, now uint64, class obs.Class) {
	for i := range m.fan {
		l := &m.fan[i]
		l.hier.PrefetchClass(addr, now+l.skew, class)
	}
}
