package machine

import (
	"reflect"

	"stridepf/internal/cache"
	"stridepf/internal/obs"
)

// Lane is an extra memory system, with its own runtime hooks, that a
// machine drives beside its primary one (Config.Hierarchy, NewHWPrefetch,
// Obs and Hooks). One execution of the program then yields the run each
// lane's configuration would have produced on its own machine: the
// instruction stream, registers and memory image depend neither on cache
// or prefetcher state nor on the hooks, so only the clock differs. With
// lanes attached, every hook — the primary's and the lanes' — must
// therefore write no registers and no simulated memory; stride.Runtime's
// writes neither.
//
// A lane's clock is the shared fixed-cost cycle count plus the lane's own
// stall and hook total, kept as a skew against the primary clock. Every
// OpHook site runs the primary's hook and then each lane's; inside a lane's
// hook, AddCycles, Now, Stats and Obs charge and read that lane's clock and
// collector.
//
// A lane normally keeps its own hierarchy. The step loop's memory handlers
// record every demand load, store, speculative load and software prefetch
// into one block of laneBlock references, and each such lane replays the
// block at its own clock, so it makes exactly the call sequence a
// standalone run would: Load/Store/PrefetchClass(addr, now), and after a
// program load the prefetcher's Train(pc, addr), whose target it
// prefetches at now+lat. Hook charges to such a lane enter the block too,
// between the references around them. A replay runs when the block fills,
// when a lane's hook reads the lane's clock and when Run ends, however it
// ends; Lanes and FinishObs therefore see every lane up to date. When no
// prefetch can ever be in flight — no hardware prefetcher on the machine
// or the lane, no enabled OpPrefetch in the program, no lane collector,
// and a hierarchy config equal to the primary's — every demand latency is
// independent of time. The lane then shares the primary's hierarchy and
// counters and stays out of the recording; only its hooks set it apart.
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
	// Hooks binds the lane's runtime hooks by ID, as Config.Hooks binds the
	// primary's. Every hook ID the program names must be bound here too, or
	// New fails.
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
	idx int
	// fan is the lane's position in Machine.fan, or -1 for a lane sharing
	// the primary's hierarchy.
	fan   int
	hier  *cache.Hierarchy
	pf    HWPrefetcher
	obs   *obs.Collector
	hooks map[int64]HookFunc
	// skew is the lane's clock minus the primary's, modulo 2^64: the
	// difference of their stall and hook totals, which may be negative.
	skew uint64
}

// laneBlock is the number of records the step loop gathers before the
// lanes of the fan-out replay them. Each lane then runs a whole block
// against its own hierarchy and prefetcher tables while they are hot in
// the host's caches, instead of every lane's tables taking turns on every
// reference; each block costs a lane one warm-up of its tables, so longer
// blocks amortise it better. BenchmarkLaneFanOut put blocks of 128 to
// 65536 records within host noise of each other, but on the serial arena
// job 16384 beat 1024 by about 7%. The block, 640 KB, is allocated whole:
// grown by append, it would leave about 3 MB of garbage per machine.
const laneBlock = 16384

// Record kinds of the fan-out stream.
const (
	recLoad     uint8 = iota // a program load: Load, then the lane prefetcher's Train
	recSpecLoad              // a speculative load: Load only
	recStore
	recPrefetch // a software prefetch of class rec.class
	recCharge   // rec.lat cycles charged to lane rec.lane's clock
)

// laneRec is one record of the fan-out stream: a memory reference as the
// primary made it, or a hook charge to one lane.
type laneRec struct {
	kind  uint8
	class uint8  // obs.Class of a prefetch
	lane  uint32 // fan position of a charge's lane
	pc    uint64
	addr  uint64
	// now is the primary clock at issue.
	now uint64
	// lat is the primary's latency, or a charge's cycles (modulo 2^64).
	lat uint64
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
		ln := lane{idx: i, fan: -1, obs: l.Obs, hooks: l.Hooks}
		hc := l.Hierarchy
		if len(hc.Levels) == 0 {
			hc = cache.ItaniumConfig()
		}
		if !prefetching && l.NewHWPrefetch == nil && l.Obs == nil && reflect.DeepEqual(hc, cfg.Hierarchy) {
			ln.hier = m.Hier
			shared = append(shared, ln)
			continue
		}
		ln.fan = len(own)
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
		m.recs = make([]laneRec, 0, laneBlock)
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
// charge is not a shared cost, so each lane's clock gives it back before
// the lane's own hook runs. Every lane must bind id (bindHooks checks).
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
			mm.charge(l, -charged)
			mm.cur = l
			lf(mm, args)
		}
		mm.cur = nil
	}
}

// charge adds n cycles to lane l's clock. A lane of the fan-out takes it
// as a record, so it lands between the references recorded around it.
func (m *Machine) charge(l *lane, n uint64) {
	switch {
	case l.fan < 0:
		l.skew += n
	case n != 0:
		m.record(laneRec{kind: recCharge, lane: uint32(l.fan), lat: n})
	}
}

// record appends r to the fan-out stream and replays the block once it is
// full.
func (m *Machine) record(r laneRec) {
	m.recs = append(m.recs, r)
	if len(m.recs) == laneBlock {
		m.replay()
	}
}

// replay presents the recorded block to every lane of the fan-out and
// empties it. For each reference a lane issues at its own clock (the
// primary's at issue plus the lane's skew), moves its skew by the
// difference between its latency and the primary's, and after a program
// load trains its prefetcher and prefetches the target at the lane's
// completion time. The block is emptied first, so a divergence panic
// raised by a lane's shadow model cannot leave it to be replayed twice.
func (m *Machine) replay() {
	recs := m.recs
	m.recs = m.recs[:0]
	for i := range m.fan {
		l := &m.fan[i]
		h, pf, skew := l.hier, l.pf, l.skew
		for j := range recs {
			r := &recs[j]
			t := r.now + skew
			switch r.kind {
			case recLoad:
				lat := uint64(h.Load(r.addr, t))
				skew += lat - r.lat
				if pf != nil {
					if tgt, ok := pf.Train(r.pc, r.addr); ok {
						h.PrefetchClass(tgt, t+lat, obs.ClassHW)
					}
				}
			case recSpecLoad:
				skew += uint64(h.Load(r.addr, t)) - r.lat
			case recStore:
				skew += uint64(h.Store(r.addr, t)) - r.lat
			case recPrefetch:
				h.PrefetchClass(r.addr, t, obs.Class(r.class))
			case recCharge:
				if r.lane == uint32(i) {
					skew += r.lat
				}
			}
		}
		l.skew = skew
	}
}
