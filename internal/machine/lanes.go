package machine

import (
	"fmt"
	"sort"

	"stridepf/internal/cache"
	"stridepf/internal/ir"
	"stridepf/internal/obs"
)

// Lane is an extra memory system a machine drives in lockstep with its
// primary one (Config.Hierarchy, HWPrefetch and Obs). One execution of the
// program then yields the run each lane's configuration would have produced
// on its own machine: the instruction stream, registers and memory image
// do not depend on cache or prefetcher state, so only the clock differs.
//
// Every demand load, store, speculative load and software prefetch fans
// out to each lane. A lane's clock is the shared fixed-cost cycle count
// plus the lane's own stall total, kept as a skew against the primary
// clock, so each lane sees exactly the call sequence a standalone run
// would give it: Load/Store/PrefetchClass(addr, now), then the
// prefetcher's Observe(pc, addr, hier, now+lat). The fan-out runs inside the
// step loop's memory handlers; with lanes attached the translator leaves
// loads and stores unbatched, so each lane sees them one at a time. Runtime
// hooks charge simulated time to the one shared clock, so a program with
// OpHook sites cannot run with lanes attached (Run fails with
// *LaneHookError).
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
}

// LaneHookError reports a Run refused because lanes are attached to a
// program with a runtime-hook site; it names the first site in function
// order.
type LaneHookError struct {
	// Func and Block locate the hook site; Instr is its index in the block.
	Func, Block string
	Instr       int
	// HookID is the site's hook identifier.
	HookID int64
}

func (e *LaneHookError) Error() string {
	return fmt.Sprintf("machine: lanes cannot share hook-charged cycles: hook %d at instruction %d of %s/%s",
		e.HookID, e.Instr, e.Func, e.Block)
}

// LaneView is one lane's account of the execution so far.
type LaneView struct {
	// Stats is the machine's statistics with the lane's own cycle count.
	Stats Stats
	// Hier is the lane's cache hierarchy.
	Hier *cache.Hierarchy
	// HWPrefetch is the lane's hardware prefetcher, or nil.
	HWPrefetch HWPrefetcher
}

// lane is the runtime state of one Lane.
type lane struct {
	hier *cache.Hierarchy
	pf   HWPrefetcher
	// skew is the lane's clock minus the primary's, modulo 2^64: the
	// difference of their stall totals, which may be negative.
	skew uint64
}

// newLane builds the runtime state of l, with the shadow models attached
// when the machine self-checks.
func newLane(l Lane, selfCheck bool) lane {
	hc := l.Hierarchy
	if len(hc.Levels) == 0 {
		hc = cache.ItaniumConfig()
	}
	ln := lane{hier: cache.NewHierarchy(hc)}
	if selfCheck {
		ln.hier.EnableSelfCheck()
	}
	if l.Obs != nil {
		ln.hier.EnableObs(l.Obs)
	}
	if l.NewHWPrefetch != nil {
		ln.pf = l.NewHWPrefetch()
	}
	return ln
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
		out[i] = LaneView{Stats: st, Hier: l.hier, HWPrefetch: l.pf}
	}
	return out
}

// laneHookSite returns the first OpHook site in function order, or nil.
func (m *Machine) laneHookSite() *LaneHookError {
	names := make([]string, 0, len(m.codes))
	for name := range m.codes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := m.codes[name]
		for bi, blk := range c.blocks {
			for ii := range blk {
				if blk[ii].op == ir.OpHook {
					return &LaneHookError{Func: name, Block: c.blockNames[bi], Instr: ii, HookID: blk[ii].hookID}
				}
			}
		}
	}
	return nil
}

// laneLoad presents a demand load to every lane. now is the primary clock
// at issue and lat the primary's latency; each lane issues at its own
// clock, moves its skew by the latency difference, and — when observe is
// set (program loads, not speculative ones) — feeds its prefetcher at the
// lane's completion time.
func (m *Machine) laneLoad(pc, addr, now, lat uint64, observe bool) {
	for i := range m.lanes {
		l := &m.lanes[i]
		t := now + l.skew
		ll := uint64(l.hier.Load(addr, t))
		l.skew += ll - lat
		if observe && l.pf != nil {
			l.pf.Observe(pc, addr, l.hier, t+ll)
		}
	}
}

// laneStore presents a store to every lane (see laneLoad).
func (m *Machine) laneStore(addr, now, lat uint64) {
	for i := range m.lanes {
		l := &m.lanes[i]
		l.skew += uint64(l.hier.Store(addr, now+l.skew)) - lat
	}
}

// lanePrefetch presents a software prefetch to every lane at its own clock.
func (m *Machine) lanePrefetch(addr, now uint64, class obs.Class) {
	for i := range m.lanes {
		l := &m.lanes[i]
		l.hier.PrefetchClass(addr, now+l.skew, class)
	}
}
