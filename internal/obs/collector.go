package obs

import "fmt"

// LevelStats is the per-cache-level view of prefetch effectiveness. The
// hierarchy fills one entry per level when observation finishes.
type LevelStats struct {
	// Name is the level label ("L1D", "L2", "L3").
	Name string
	// Hits and Misses are the level's demand lookup counters.
	Hits, Misses uint64
	// PFHits counts, per class, demand hits on lines still carrying that
	// class's prefetch tag at this level. At L1 these coincide with the
	// class's Useful count; at outer levels they expose prefetched lines
	// that were evicted from L1 but still saved a deeper miss.
	PFHits [NumClasses]uint64
	// PFEvictedUnused counts, per class, prefetch-tagged lines evicted from
	// this level before any demand touch.
	PFEvictedUnused [NumClasses]uint64
	// PFResident counts, per class, prefetch-tagged lines still resident
	// at the end of the run.
	PFResident [NumClasses]uint64
}

// Collector accumulates prefetch-effectiveness counters for one run. It is
// attached to a cache.Hierarchy with EnableObs and populated by the
// hierarchy as events happen; it performs no synchronisation, matching the
// single-threaded machine it observes.
type Collector struct {
	// Classes holds the lifecycle counters per prefetch class.
	Classes [NumClasses]ClassStats
	// Levels is filled by the hierarchy when observation finishes.
	Levels []LevelStats
	// UncoveredMisses counts demand L1 misses served with no prefetch help
	// at any level — the coverage denominator's miss side.
	UncoveredMisses uint64
	// VictimOverflow counts prefetch-eviction victims not tracked because
	// the bounded victim table was full (Harmful is a lower bound then).
	VictimOverflow uint64

	trace *Trace
}

// NewCollector returns an empty collector. trace may be nil.
func NewCollector(trace *Trace) *Collector { return &Collector{trace: trace} }

// Trace returns the attached event sink, or nil.
func (c *Collector) Trace() *Trace { return c.trace }

// Emit forwards an event to the attached trace sink, if any. The hierarchy
// and the stride runtime funnel through here (the lifecycle methods below
// through emit) so sampling and bounding are applied uniformly.
func (c *Collector) Emit(ev TraceEvent) {
	if c != nil && c.trace != nil {
		c.trace.Emit(ev)
	}
}

// emit traces one prefetch-lifecycle event. It returns before building the
// event when no trace is attached, which is the case on every run without
// a trace sink.
func (c *Collector) emit(kind string, class Class, addr, now uint64) {
	if c.trace == nil {
		return
	}
	c.trace.Emit(TraceEvent{Cycle: now, Kind: kind, Class: class.String(), Addr: addr})
}

// PrefetchIssued records a prefetch entering the in-flight table.
func (c *Collector) PrefetchIssued(class Class, addr, now uint64) {
	c.Classes[class].Issued++
	c.emit("pf-issue", class, addr, now)
}

// PrefetchRedundant records a prefetch dropped because its line was already
// resident or already in flight.
func (c *Collector) PrefetchRedundant(class Class, addr, now uint64) {
	c.Classes[class].Redundant++
	c.emit("pf-redundant", class, addr, now)
}

// PrefetchDroppedTLB records a prefetch dropped on a TLB miss.
func (c *Collector) PrefetchDroppedTLB(class Class, addr, now uint64) {
	c.Classes[class].DroppedTLB++
	c.emit("pf-drop-tlb", class, addr, now)
}

// PrefetchDroppedMSHR records a prefetch dropped because the in-flight
// table was full.
func (c *Collector) PrefetchDroppedMSHR(class Class, addr, now uint64) {
	c.Classes[class].DroppedMSHR++
	c.emit("pf-drop-mshr", class, addr, now)
}

// DemandUseful records a demand access served by a completed prefetch.
func (c *Collector) DemandUseful(class Class, addr, now uint64) {
	c.Classes[class].Useful++
	c.emit("pf-useful", class, addr, now)
}

// DemandLate records a demand access that hit a still-in-flight line.
func (c *Collector) DemandLate(class Class, addr, now uint64) {
	c.Classes[class].Late++
	c.emit("pf-late", class, addr, now)
}

// EvictedUnused records a prefetched line evicted from L1 untouched.
func (c *Collector) EvictedUnused(class Class, addr, now uint64) {
	c.Classes[class].EvictedUnused++
	c.emit("pf-evicted-unused", class, addr, now)
}

// Harmful records a demand miss on a line evicted by a prefetch fill.
func (c *Collector) Harmful(class Class, addr, now uint64) {
	c.Classes[class].Harmful++
	c.emit("pf-harmful", class, addr, now)
}

// UncoveredMiss records a demand L1 miss served with no prefetch help.
func (c *Collector) UncoveredMiss() { c.UncoveredMisses++ }

// Coverage is the fraction of would-be demand misses that prefetching
// served (fully or partially): covered / (covered + uncovered).
func (c *Collector) Coverage() float64 {
	var covered uint64
	for i := range c.Classes {
		covered += c.Classes[i].covered()
	}
	if covered+c.UncoveredMisses == 0 {
		return 0
	}
	return float64(covered) / float64(covered+c.UncoveredMisses)
}

// ClassCoverage is the class's share of the same denominator: the fraction
// of would-be misses this class's prefetches served.
func (c *Collector) ClassCoverage(class Class) float64 {
	var covered uint64
	for i := range c.Classes {
		covered += c.Classes[i].covered()
	}
	if covered+c.UncoveredMisses == 0 {
		return 0
	}
	return float64(c.Classes[class].covered()) / float64(covered+c.UncoveredMisses)
}

// Totals sums the per-class lifecycle counters.
func (c *Collector) Totals() ClassStats {
	var t ClassStats
	for i := range c.Classes {
		t.Add(c.Classes[i])
	}
	return t
}

// Reconcile checks the lifecycle identity: every issued prefetch must end
// in exactly one outcome bucket. A non-nil error means the instrumentation
// itself is broken (an event was double-counted or lost), never that the
// prefetches performed poorly.
func (c *Collector) Reconcile() error {
	t := c.Totals()
	outcomes := t.Useful + t.Late + t.EvictedUnused + t.ResidentUnused + t.InFlightEnd
	if outcomes != t.Issued {
		return fmt.Errorf(
			"obs: lifecycle mismatch: issued=%d but useful=%d late=%d evicted-unused=%d resident-unused=%d in-flight=%d (sum %d)",
			t.Issued, t.Useful, t.Late, t.EvictedUnused, t.ResidentUnused, t.InFlightEnd, outcomes)
	}
	return nil
}
