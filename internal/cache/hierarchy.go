package cache

import (
	"fmt"

	"stridepf/internal/obs"
)

// HierarchyConfig describes a full memory hierarchy.
type HierarchyConfig struct {
	// Levels lists the cache levels from closest (L1) to farthest.
	Levels []Config
	// MemLatency is the access latency, in cycles, of main memory.
	MemLatency int
	// StoreLatency caps the charged latency of stores (write-buffer model):
	// stores still update cache state, but the pipeline only stalls this
	// many cycles at most. Zero means stores cost full load latency.
	StoreLatency int
	// MaxInFlight bounds the number of simultaneously outstanding fills
	// (an MSHR-like limit); further prefetches are dropped. Zero means 16;
	// a negative value is invalid and makes NewHierarchy panic. The
	// hierarchy keeps exactly this many MSHR slots in a fixed array and
	// scans them linearly, as hardware does.
	MaxInFlight int
	// TLB, when non-nil, adds a data TLB: demand loads and stores pay the
	// walk penalty on translation misses. Prefetches that miss the TLB are
	// dropped, matching Itanium lfetch semantics.
	TLB *TLBConfig
}

// ItaniumConfig returns the hierarchy of the paper's evaluation machine:
// 16 KB 4-way L1D, 96 KB 6-way L2, 2 MB 4-way L3, 64-byte lines, with
// latencies approximating a 733 MHz Itanium (2/9/24-cycle hits, 120-cycle
// memory).
func ItaniumConfig() HierarchyConfig {
	return HierarchyConfig{
		Levels: []Config{
			{Name: "L1D", Size: 16 << 10, Assoc: 4, LineSize: 64, HitLatency: 2},
			{Name: "L2", Size: 96 << 10, Assoc: 6, LineSize: 64, HitLatency: 9},
			{Name: "L3", Size: 2 << 20, Assoc: 4, LineSize: 64, HitLatency: 24},
		},
		MemLatency:   120,
		StoreLatency: 2,
		MaxInFlight:  16,
	}
}

// Hierarchy is a multi-level cache simulator with in-flight line tracking
// for non-blocking prefetches.
type Hierarchy struct {
	cfg    HierarchyConfig
	levels []*Cache
	tlb    *TLB
	shift  uint

	// check, when non-nil, drives a naive shadow model in lockstep with
	// every access and panics with a *DivergenceError on the first
	// disagreement (see shadow.go and EnableSelfCheck).
	check *selfCheck

	// mshrs holds the outstanding fills, one entry per busy MSHR, in no
	// particular order; its capacity is MaxInFlight and never grows.
	// done is completeInflight's scratch of the same capacity.
	mshrs, done []mshr

	// obs, when non-nil, receives prefetch-effectiveness events (see
	// EnableObs). Everything below it is observation-only state: none of it
	// may influence latencies, evictions or the counters the shadow model
	// compares.
	obs *obs.Collector
	// victims maps lines evicted from L1 by a prefetch fill to the evicting
	// class; a demand miss on such a line is charged as Harmful. Entries
	// close when the line is refilled into L1. The table is bounded
	// (victimTableCap); overflowed victims are counted, not tracked.
	victims *LineTable

	// Stats.
	Loads            uint64 // demand loads
	Stores           uint64
	Prefetches       uint64 // prefetches issued
	PrefetchDrops    uint64 // dropped: line already present or MSHRs full
	PrefetchLate     uint64 // demand load hit a still-in-flight line
	PrefetchUseful   uint64 // demand load hit a line brought in by prefetch
	DemandMissCycles uint64 // cycles stalled on demand accesses
}

// mshr is one outstanding fill: the line (addr >> shift), the cycle its
// fill into L1 completes, and the class that issued it.
type mshr struct {
	line, ready uint64
	class       obs.Class
}

// NewHierarchy builds the hierarchy. All levels must share one line size.
// It panics on a configuration the fixed tables cannot hold: no levels, a
// negative MaxInFlight, or a level New rejects.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	if len(cfg.Levels) == 0 {
		panic("cache: hierarchy needs at least one level")
	}
	if cfg.MaxInFlight < 0 {
		panic(fmt.Sprintf("cache: negative MaxInFlight %d", cfg.MaxInFlight))
	}
	h := &Hierarchy{cfg: cfg}
	line := cfg.Levels[0].LineSize
	for _, lc := range cfg.Levels {
		if lc.LineSize != line {
			panic("cache: all levels must share a line size")
		}
		h.levels = append(h.levels, New(lc))
	}
	for ls := line; ls > 1; ls >>= 1 {
		h.shift++
	}
	if h.cfg.MaxInFlight == 0 {
		h.cfg.MaxInFlight = 16
	}
	h.mshrs = make([]mshr, 0, h.cfg.MaxInFlight)
	h.done = make([]mshr, 0, h.cfg.MaxInFlight)
	if cfg.TLB != nil {
		h.tlb = NewTLB(*cfg.TLB)
	}
	return h
}

// victimTableCap bounds the harm-window table: pathological eviction storms
// must not grow observation state without bound. Overflow makes Harmful a
// lower bound and is surfaced via Collector.VictimOverflow.
const victimTableCap = 8192

// EnableObs attaches a prefetch-effectiveness collector. Observation is
// strictly passive — cycle counts, evictions and every counter the shadow
// model checks stay bit-identical (pinned by simcheck's
// CheckMetricsNeutrality). Enable before the first access.
func (h *Hierarchy) EnableObs(c *obs.Collector) {
	h.obs = c
	h.victims = NewLineTable(victimTableCap)
	for _, l := range h.levels {
		l.enableObs(int(obs.NumClasses))
	}
}

// Obs returns the attached effectiveness collector, or nil.
func (h *Hierarchy) Obs() *obs.Collector { return h.obs }

// FinishObs closes the observation window at time now: prefetched lines
// still resident count as resident-unused, entries still in the in-flight
// table as in-flight-at-end, and the per-level statistics are frozen into
// the collector. Call exactly once, after the last simulated access.
func (h *Hierarchy) FinishObs(now uint64) {
	if h.obs == nil {
		return
	}
	for _, m := range h.mshrs {
		h.obs.Classes[m.class].InFlightEnd++
	}
	h.obs.Levels = h.obs.Levels[:0]
	for i, l := range h.levels {
		ls := obs.LevelStats{Name: l.cfg.Name, Hits: l.Hits, Misses: l.Misses}
		copy(ls.PFHits[:], l.pfHits)
		copy(ls.PFEvictedUnused[:], l.pfEvicted)
		l.residentProv(ls.PFResident[:])
		if i == 0 {
			for cl, n := range ls.PFResident {
				h.obs.Classes[cl].ResidentUnused += n
			}
		}
		h.obs.Levels = append(h.obs.Levels, ls)
	}
	h.obs.Emit(obs.TraceEvent{Cycle: now, Kind: "run-end"})
}

// TLB returns the data TLB, or nil when disabled.
func (h *Hierarchy) TLB() *TLB { return h.tlb }

// LineSize returns the hierarchy's cache-line size in bytes.
func (h *Hierarchy) LineSize() int { return h.cfg.Levels[0].LineSize }

// Level returns the i-th cache level (0 = L1).
func (h *Hierarchy) Level(i int) *Cache { return h.levels[i] }

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// Load performs a demand load of addr at time now (in cycles) and returns
// the latency in cycles. The line is filled into every level on a miss.
func (h *Hierarchy) Load(addr uint64, now uint64) int {
	h.Loads++
	lat := 0
	if h.tlb != nil {
		lat = h.tlb.Access(addr)
		h.DemandMissCycles += uint64(lat)
	}
	lat += h.access(addr, now+uint64(lat))
	if h.check != nil {
		h.check.onLoad(h, addr, now, lat)
	}
	return lat
}

// Store performs a store; state updates mirror a write-allocate,
// write-back cache but the charged latency is capped by StoreLatency.
func (h *Hierarchy) Store(addr uint64, now uint64) int {
	h.Stores++
	tlbLat := 0
	if h.tlb != nil {
		tlbLat = h.tlb.Access(addr)
		h.DemandMissCycles += uint64(tlbLat)
	}
	lat := h.access(addr, now+uint64(tlbLat))
	if h.cfg.StoreLatency > 0 && lat > h.cfg.StoreLatency {
		lat = h.cfg.StoreLatency
	}
	lat += tlbLat
	if h.check != nil {
		h.check.onStore(h, addr, now, lat)
	}
	return lat
}

// access looks the address up level by level; on a miss it consults the
// in-flight table, then memory. The line is installed in all levels.
func (h *Hierarchy) access(addr uint64, now uint64) int {
	line := addr >> h.shift
	// L1 first.
	if hit, tag := h.levels[0].lookupTouch(addr, true); hit {
		if tag != 0 && h.obs != nil {
			h.obs.DemandUseful(obs.Class(tag-1), addr, now)
		}
		return h.levels[0].cfg.HitLatency
	}
	// In-flight fill? (Clean runs never prefetch, so the MSHR scan is
	// usually empty.)
	if i := h.findMSHR(line); i >= 0 {
		m := h.mshrs[i]
		var lat int
		if m.ready > now {
			lat = int(m.ready-now) + h.levels[0].cfg.HitLatency
			h.PrefetchLate++
			if h.obs != nil {
				h.obs.DemandLate(m.class, addr, now)
			}
		} else {
			lat = h.levels[0].cfg.HitLatency
			h.PrefetchUseful++
			if h.obs != nil {
				h.obs.DemandUseful(m.class, addr, now)
			}
		}
		h.freeMSHR(i)
		// The demand access consumed the prefetch; the installed line is
		// demand-owned from here on.
		h.fillAll(addr, now)
		h.DemandMissCycles += uint64(lat)
		return lat
	}
	// An L1 miss with no in-flight help: no prefetch covered it. If the
	// line was pushed out by a prefetch fill, that fill did active harm.
	if h.obs != nil {
		if cls, ok := h.victims.Take(line); ok {
			h.obs.Harmful(obs.Class(cls), addr, now)
		}
		h.obs.UncoveredMiss()
	}
	// Outer levels.
	for i := 1; i < len(h.levels); i++ {
		if hit, _ := h.levels[i].lookupTouch(addr, true); hit {
			lat := h.levels[i].cfg.HitLatency
			h.fillUpTo(addr, i, 0, now)
			h.DemandMissCycles += uint64(lat)
			return lat
		}
	}
	lat := h.cfg.MemLatency
	h.fillAll(addr, now)
	h.DemandMissCycles += uint64(lat)
	return lat
}

// Prefetch starts a non-binding fill of addr's line at time now. It never
// stalls: the returned latency is the (small) issue cost of zero — the
// machine charges the instruction's ordinary occupancy. Prefetches to lines
// already in L1 or already in flight are dropped.
func (h *Hierarchy) Prefetch(addr uint64, now uint64) {
	h.PrefetchClass(addr, now, obs.ClassUnknown)
}

// PrefetchClass is Prefetch with the issuing class attached for the
// observability layer. The class changes nothing about the simulated
// behavior; with no collector enabled it is ignored entirely.
func (h *Hierarchy) PrefetchClass(addr uint64, now uint64, class obs.Class) {
	if h.check != nil {
		// The shadow replays the whole prefetch (drop checks, overflow
		// completion, fill-time scan) after the optimized model runs it.
		defer h.check.onPrefetch(h, addr, now)
	}
	h.Prefetches++
	// lfetch semantics: a prefetch whose translation misses the TLB is
	// dropped rather than triggering a page walk. (The probe does not
	// install a translation either; Contains-style peek.)
	if h.tlb != nil && !h.tlbContains(addr) {
		h.PrefetchDrops++
		if h.obs != nil {
			h.obs.PrefetchDroppedTLB(class, addr, now)
		}
		return
	}
	line := addr >> h.shift
	if h.levels[0].Contains(addr) {
		h.PrefetchDrops++
		if h.obs != nil {
			h.obs.PrefetchRedundant(class, addr, now)
		}
		return
	}
	if h.findMSHR(line) >= 0 {
		h.PrefetchDrops++
		if h.obs != nil {
			h.obs.PrefetchRedundant(class, addr, now)
		}
		return
	}
	if len(h.mshrs) == cap(h.mshrs) {
		// MSHRs look full, but fills that have already completed free their
		// entries (install the lines) before we give up.
		h.completeInflight(now)
		if len(h.mshrs) == cap(h.mshrs) {
			h.PrefetchDrops++
			if h.obs != nil {
				h.obs.PrefetchDroppedMSHR(class, addr, now)
			}
			return
		}
	}
	// Fill time depends on where the line currently lives. The scan is a
	// non-demand probe: it must not consume another prefetch's provenance
	// tag at an outer level.
	fill := h.cfg.MemLatency
	for i := 1; i < len(h.levels); i++ {
		if hit, _ := h.levels[i].lookupTouch(addr, false); hit {
			fill = h.levels[i].cfg.HitLatency
			break
		}
	}
	h.mshrs = append(h.mshrs, mshr{line: line, ready: now + uint64(fill), class: class})
	if h.obs != nil {
		h.obs.PrefetchIssued(class, addr, now)
	}
}

// findMSHR returns the index of line's outstanding fill, or -1.
func (h *Hierarchy) findMSHR(line uint64) int {
	for i := range h.mshrs {
		if h.mshrs[i].line == line {
			return i
		}
	}
	return -1
}

// freeMSHR releases entry i; the array is unordered, so the last entry
// moves into the hole.
func (h *Hierarchy) freeMSHR(i int) {
	last := len(h.mshrs) - 1
	h.mshrs[i] = h.mshrs[last]
	h.mshrs = h.mshrs[:last]
}

// CompleteInflight installs any fills that have completed by time now.
// Calling it periodically keeps the in-flight table small; correctness does
// not depend on the call frequency because demand accesses consult the
// table directly.
func (h *Hierarchy) CompleteInflight(now uint64) {
	h.completeInflight(now)
	if h.check != nil {
		h.check.onComplete(h, now)
	}
}

// completeInflight installs completed fills in ascending line order. The
// canonical order matters: each install refreshes LRU state, so an order
// that followed the MSHR array's slot order would make eviction decisions —
// and therefore cycle counts — depend on the history of frees. Completed
// entries move into the done scratch, insertion-sorted by line (at most
// MaxInFlight of them), and the rest stay outstanding.
func (h *Hierarchy) completeInflight(now uint64) {
	done, kept := h.done[:0], h.mshrs[:0]
	for _, m := range h.mshrs {
		if m.ready > now {
			kept = append(kept, m)
			continue
		}
		j := len(done)
		done = append(done, m)
		for ; j > 0 && done[j-1].line > m.line; j-- {
			done[j] = done[j-1]
		}
		done[j] = m
	}
	h.mshrs = kept
	for _, m := range done {
		var prov uint8
		if h.obs != nil {
			prov = uint8(m.class) + 1
		}
		h.fillUpTo(m.line<<h.shift, len(h.levels), prov, now)
	}
}

func (h *Hierarchy) fillAll(addr, now uint64) { h.fillUpTo(addr, len(h.levels), 0, now) }

// fillUpTo installs the line into levels [0, upto), tagging each filled way
// with prov (0 = demand fill, else prefetch class + 1). At L1 it maintains
// the harm-window table: a prefetch fill that evicts a demand-owned line
// opens a window, any refill of a tracked line closes it, and evicting a
// still-tagged line closes that prefetch's lifecycle as evicted-unused.
func (h *Hierarchy) fillUpTo(addr uint64, upto int, prov uint8, now uint64) {
	for i := 0; i < upto && i < len(h.levels); i++ {
		ev, evProv, didEvict := h.levels[i].insertProv(addr, prov)
		if i != 0 || h.obs == nil {
			continue
		}
		h.victims.Take(addr >> h.shift)
		if !didEvict {
			continue
		}
		switch {
		case evProv != 0:
			h.obs.EvictedUnused(obs.Class(evProv-1), ev, now)
		case prov != 0:
			if !h.victims.Put(ev>>h.shift, prov-1) {
				h.obs.VictimOverflow++
			}
		}
	}
}

// tlbContains peeks at the TLB without updating LRU or statistics.
func (h *Hierarchy) tlbContains(addr uint64) bool {
	page := addr >> h.tlb.shift
	for i := range h.tlb.pages {
		if h.tlb.valid[i] && h.tlb.pages[i] == page {
			return true
		}
	}
	return false
}

// Reset clears all cache contents, the in-flight table and statistics.
func (h *Hierarchy) Reset() {
	for _, l := range h.levels {
		l.Reset()
	}
	if h.tlb != nil {
		h.tlb.Reset()
	}
	h.mshrs = h.mshrs[:0]
	if h.victims != nil {
		h.victims.Reset()
	}
	h.Loads, h.Stores, h.Prefetches = 0, 0, 0
	h.PrefetchDrops, h.PrefetchLate, h.PrefetchUseful = 0, 0, 0
	h.DemandMissCycles = 0
	if h.check != nil {
		h.check.shadow.reset()
	}
}
