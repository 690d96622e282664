// Shadow-model self-checking for the cache hierarchy.
//
// The optimized Cache and Hierarchy carry two micro-architectural fast
// paths — the per-set MRU-way probe and the gated in-flight-table lookup —
// that were previously validated only end-to-end (byte-identical figure
// output). This file provides an independently written naive reference
// model that, when self-checking is enabled, is driven in lockstep with the
// optimized one: every Load, Store, Prefetch and CompleteInflight is
// replayed against the shadow, and the returned latency plus every
// statistics counter must agree event-by-event. The first mismatch aborts
// the simulation with a DivergenceError carrying the recent event trace and
// a dump of the disagreeing cache set, so a bug is localized to the exact
// access that exposed it instead of a diverged checksum megabytes later.
//
// The shadow deliberately uses none of the optimized data layout: plain
// per-set way slices, full linear probes, no MRU hints, no empty-map gate.
// Replacement *policy* (last-invalid-way preference, strict-LRU with
// earliest-index tie-break, deterministic in-flight completion order) is
// part of the modelled specification and is therefore implemented — from
// the spec, not by calling the optimized code — identically.
package cache

import (
	"fmt"
	"sort"
	"strings"
)

// Event is one recorded hierarchy access, kept in a small ring so a
// divergence report shows the events leading up to the mismatch.
type Event struct {
	// Seq is the access sequence number (1-based).
	Seq uint64
	// Op is "load", "store", "prefetch" or "complete".
	Op string
	// Addr is the byte address accessed (zero for "complete").
	Addr uint64
	// Now is the simulated cycle the access was issued at.
	Now uint64
	// Lat is the returned latency; -1 for operations that return none.
	Lat int
}

func (e Event) String() string {
	if e.Lat >= 0 {
		return fmt.Sprintf("#%d %-8s addr=%#x now=%d lat=%d", e.Seq, e.Op, e.Addr, e.Now, e.Lat)
	}
	return fmt.Sprintf("#%d %-8s addr=%#x now=%d", e.Seq, e.Op, e.Addr, e.Now)
}

// DivergenceError reports the first event at which the optimized hierarchy
// and its shadow model disagreed.
type DivergenceError struct {
	// Op, Addr and Now identify the diverging access.
	Op   string
	Addr uint64
	Now  uint64
	// Detail describes the mismatch ("latency: optimized=2 shadow=9", ...).
	Detail string
	// SetDump shows the relevant cache set in both models, when applicable.
	SetDump string
	// Events is the trace of recent accesses, oldest first, ending with the
	// diverging one.
	Events []Event
}

func (e *DivergenceError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cache: shadow-model divergence at %s addr=%#x now=%d: %s",
		e.Op, e.Addr, e.Now, e.Detail)
	if e.SetDump != "" {
		fmt.Fprintf(&b, "\n%s", e.SetDump)
	}
	if len(e.Events) > 0 {
		fmt.Fprintf(&b, "\nrecent events (oldest first):")
		for _, ev := range e.Events {
			fmt.Fprintf(&b, "\n  %s", ev)
		}
	}
	return b.String()
}

// shadowWay is one way of a naive set-associative cache.
type shadowWay struct {
	line    uint64
	valid   bool
	lastUse uint64
}

// shadowLevel is the naive reference model of one Cache level: a plain
// [set][way] matrix probed by full linear scan on every access.
type shadowLevel struct {
	cfg   Config
	sets  int
	shift uint
	ways  [][]shadowWay
	tick  uint64

	hits, misses uint64
}

func newShadowLevel(cfg Config) *shadowLevel {
	lines := cfg.Size / cfg.LineSize
	sets := lines / cfg.Assoc
	l := &shadowLevel{cfg: cfg, sets: sets, ways: make([][]shadowWay, sets)}
	for i := range l.ways {
		l.ways[i] = make([]shadowWay, cfg.Assoc)
	}
	for ls := cfg.LineSize; ls > 1; ls >>= 1 {
		l.shift++
	}
	return l
}

func (l *shadowLevel) set(addr uint64) int {
	return int((addr >> l.shift) % uint64(l.sets))
}

// lookup probes for addr's line, refreshing LRU on a hit.
func (l *shadowLevel) lookup(addr uint64) bool {
	line := addr >> l.shift
	ws := l.ways[l.set(addr)]
	l.tick++
	for i := range ws {
		if ws[i].valid && ws[i].line == line {
			ws[i].lastUse = l.tick
			l.hits++
			return true
		}
	}
	l.misses++
	return false
}

// contains probes without touching LRU state or statistics.
func (l *shadowLevel) contains(addr uint64) bool {
	line := addr >> l.shift
	ws := l.ways[l.set(addr)]
	for i := range ws {
		if ws[i].valid && ws[i].line == line {
			return true
		}
	}
	return false
}

// insert fills addr's line. Victim policy (part of the modelled spec): a
// line already present is refreshed in place; otherwise the last invalid
// way is used if any way is invalid, else the least-recently-used way with
// earliest-index tie-break is evicted.
func (l *shadowLevel) insert(addr uint64) {
	line := addr >> l.shift
	ws := l.ways[l.set(addr)]
	l.tick++
	for i := range ws {
		if ws[i].valid && ws[i].line == line {
			ws[i].lastUse = l.tick
			return
		}
	}
	victim := -1
	for i := range ws {
		if !ws[i].valid {
			victim = i
		}
	}
	if victim < 0 {
		victim = 0
		for i := 1; i < len(ws); i++ {
			if ws[i].lastUse < ws[victim].lastUse {
				victim = i
			}
		}
	}
	ws[victim] = shadowWay{line: line, valid: true, lastUse: l.tick}
}

func (l *shadowLevel) reset() {
	for s := range l.ways {
		for w := range l.ways[s] {
			l.ways[s][w] = shadowWay{}
		}
	}
	l.hits, l.misses = 0, 0
	l.tick = 0
}

// shadowHier is the naive reference model of a Hierarchy.
type shadowHier struct {
	cfg      HierarchyConfig
	levels   []*shadowLevel
	tlb      *TLB
	shift    uint
	inflight map[uint64]uint64

	loads, stores, prefetches                   uint64
	prefetchDrops, prefetchLate, prefetchUseful uint64
	demandMissCycles                            uint64
}

func newShadowHier(cfg HierarchyConfig) *shadowHier {
	s := &shadowHier{cfg: cfg, inflight: make(map[uint64]uint64)}
	for _, lc := range cfg.Levels {
		s.levels = append(s.levels, newShadowLevel(lc))
	}
	for ls := cfg.Levels[0].LineSize; ls > 1; ls >>= 1 {
		s.shift++
	}
	if cfg.TLB != nil {
		// The TLB has no fast-path optimization under validation; the shadow
		// runs a second instance of it so translation state stays in lockstep.
		s.tlb = NewTLB(*cfg.TLB)
	}
	return s
}

func (s *shadowHier) load(addr, now uint64) int {
	s.loads++
	lat := 0
	if s.tlb != nil {
		lat = s.tlb.Access(addr)
		s.demandMissCycles += uint64(lat)
	}
	return lat + s.access(addr, now+uint64(lat))
}

func (s *shadowHier) store(addr, now uint64) int {
	s.stores++
	tlbLat := 0
	if s.tlb != nil {
		tlbLat = s.tlb.Access(addr)
		s.demandMissCycles += uint64(tlbLat)
	}
	lat := s.access(addr, now+uint64(tlbLat))
	if s.cfg.StoreLatency > 0 && lat > s.cfg.StoreLatency {
		lat = s.cfg.StoreLatency
	}
	return tlbLat + lat
}

func (s *shadowHier) access(addr, now uint64) int {
	line := addr >> s.shift
	if s.levels[0].lookup(addr) {
		return s.levels[0].cfg.HitLatency
	}
	if ready, ok := s.inflight[line]; ok {
		var lat int
		if ready > now {
			lat = int(ready-now) + s.levels[0].cfg.HitLatency
			s.prefetchLate++
		} else {
			lat = s.levels[0].cfg.HitLatency
			s.prefetchUseful++
		}
		delete(s.inflight, line)
		s.fillAll(addr)
		s.demandMissCycles += uint64(lat)
		return lat
	}
	for i := 1; i < len(s.levels); i++ {
		if s.levels[i].lookup(addr) {
			lat := s.levels[i].cfg.HitLatency
			for j := 0; j < i; j++ {
				s.levels[j].insert(addr)
			}
			s.demandMissCycles += uint64(lat)
			return lat
		}
	}
	lat := s.cfg.MemLatency
	s.fillAll(addr)
	s.demandMissCycles += uint64(lat)
	return lat
}

func (s *shadowHier) fillAll(addr uint64) {
	for _, l := range s.levels {
		l.insert(addr)
	}
}

func (s *shadowHier) prefetch(addr, now uint64) {
	s.prefetches++
	if s.tlb != nil && !tlbPeek(s.tlb, addr) {
		s.prefetchDrops++
		return
	}
	line := addr >> s.shift
	if s.levels[0].contains(addr) {
		s.prefetchDrops++
		return
	}
	if _, ok := s.inflight[line]; ok {
		s.prefetchDrops++
		return
	}
	if len(s.inflight) >= s.cfg.MaxInFlight {
		s.completeInflight(now)
		if len(s.inflight) >= s.cfg.MaxInFlight {
			s.prefetchDrops++
			return
		}
	}
	fill := s.cfg.MemLatency
	for i := 1; i < len(s.levels); i++ {
		if s.levels[i].lookup(addr) {
			fill = s.levels[i].cfg.HitLatency
			break
		}
	}
	s.inflight[line] = now + uint64(fill)
}

// completeInflight installs completed fills in ascending line order — the
// same canonical order the optimized hierarchy uses.
func (s *shadowHier) completeInflight(now uint64) {
	var done []uint64
	for line, ready := range s.inflight {
		if ready <= now {
			done = append(done, line)
		}
	}
	sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
	for _, line := range done {
		s.fillAll(line << s.shift)
		delete(s.inflight, line)
	}
}

func (s *shadowHier) reset() {
	for _, l := range s.levels {
		l.reset()
	}
	if s.tlb != nil {
		s.tlb.Reset()
	}
	s.inflight = make(map[uint64]uint64)
	s.loads, s.stores, s.prefetches = 0, 0, 0
	s.prefetchDrops, s.prefetchLate, s.prefetchUseful = 0, 0, 0
	s.demandMissCycles = 0
}

// tlbPeek checks for a translation without updating LRU or statistics.
func tlbPeek(t *TLB, addr uint64) bool {
	page := addr >> t.shift
	for i := range t.pages {
		if t.valid[i] && t.pages[i] == page {
			return true
		}
	}
	return false
}

// selfCheckRing is the number of recent events kept for divergence reports.
const selfCheckRing = 32

// selfCheck drives the shadow model in lockstep with a Hierarchy.
type selfCheck struct {
	shadow *shadowHier
	ring   [selfCheckRing]Event
	seq    uint64
}

// EnableSelfCheck attaches a naive shadow model that cross-checks every
// subsequent access. It must be called while the hierarchy is still empty
// (directly after NewHierarchy or Reset); the machine's Config.SelfCheck
// does this. On the first disagreement the hierarchy panics with a
// *DivergenceError, which machine.Run converts into an ordinary error.
func (h *Hierarchy) EnableSelfCheck() {
	h.check = &selfCheck{shadow: newShadowHier(h.cfg)}
}

// SelfChecked reports whether a shadow model is attached.
func (h *Hierarchy) SelfChecked() bool { return h.check != nil }

func (sc *selfCheck) record(op string, addr, now uint64, lat int) Event {
	sc.seq++
	ev := Event{Seq: sc.seq, Op: op, Addr: addr, Now: now, Lat: lat}
	sc.ring[sc.seq%selfCheckRing] = ev
	return ev
}

// events returns the ring contents oldest-first.
func (sc *selfCheck) events() []Event {
	var out []Event
	n := sc.seq
	start := uint64(0)
	if n > selfCheckRing {
		start = n - selfCheckRing
	}
	for s := start + 1; s <= n; s++ {
		out = append(out, sc.ring[s%selfCheckRing])
	}
	return out
}

func (sc *selfCheck) fail(h *Hierarchy, op string, addr, now uint64, detail string) {
	panic(&DivergenceError{
		Op:      op,
		Addr:    addr,
		Now:     now,
		Detail:  detail,
		SetDump: sc.dumpSets(h, addr),
		Events:  sc.events(),
	})
}

// dumpSets renders addr's set in every level of both models.
func (sc *selfCheck) dumpSets(h *Hierarchy, addr uint64) string {
	var b strings.Builder
	for i, l := range h.levels {
		line := addr >> l.shift
		set := l.setIndex(line)
		base := set * l.cfg.Assoc
		fmt.Fprintf(&b, "%s set %d (line %#x):\n  optimized:", l.cfg.Name, set, line)
		for w := 0; w < l.cfg.Assoc; w++ {
			if k := l.keys[base+w]; k != 0 {
				fmt.Fprintf(&b, " [%d]=%#x", w, k-1)
			} else {
				fmt.Fprintf(&b, " [%d]=-", w)
			}
		}
		fmt.Fprintf(&b, " recency(MRU first):")
		for pos := 0; pos < l.cfg.Assoc; pos++ {
			fmt.Fprintf(&b, " %d", l.order[set]>>(4*uint(pos))&0xf)
		}
		sl := sc.shadow.levels[i]
		ws := sl.ways[sl.set(addr)]
		fmt.Fprintf(&b, "\n  shadow:   ")
		for w := range ws {
			if ws[w].valid {
				fmt.Fprintf(&b, " [%d]=%#x@%d", w, ws[w].line, ws[w].lastUse)
			} else {
				fmt.Fprintf(&b, " [%d]=-", w)
			}
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}

// compareCounters asserts that every aggregate statistic of the two models
// agrees after an access.
func (sc *selfCheck) compareCounters(h *Hierarchy, op string, addr, now uint64) {
	s := sc.shadow
	type pair struct {
		name      string
		opt, shad uint64
	}
	pairs := []pair{
		{"Loads", h.Loads, s.loads},
		{"Stores", h.Stores, s.stores},
		{"Prefetches", h.Prefetches, s.prefetches},
		{"PrefetchDrops", h.PrefetchDrops, s.prefetchDrops},
		{"PrefetchLate", h.PrefetchLate, s.prefetchLate},
		{"PrefetchUseful", h.PrefetchUseful, s.prefetchUseful},
		{"DemandMissCycles", h.DemandMissCycles, s.demandMissCycles},
		{"inflight", uint64(len(h.mshrs)), uint64(len(s.inflight))},
	}
	for i, l := range h.levels {
		pairs = append(pairs,
			pair{l.cfg.Name + ".Hits", l.Hits, s.levels[i].hits},
			pair{l.cfg.Name + ".Misses", l.Misses, s.levels[i].misses})
	}
	for _, p := range pairs {
		if p.opt != p.shad {
			sc.fail(h, op, addr, now,
				fmt.Sprintf("counter %s: optimized=%d shadow=%d", p.name, p.opt, p.shad))
		}
	}
}

func (sc *selfCheck) onLoad(h *Hierarchy, addr, now uint64, lat int) {
	sc.record("load", addr, now, lat)
	if slat := sc.shadow.load(addr, now); slat != lat {
		sc.fail(h, "load", addr, now,
			fmt.Sprintf("latency: optimized=%d shadow=%d", lat, slat))
	}
	sc.compareCounters(h, "load", addr, now)
}

func (sc *selfCheck) onStore(h *Hierarchy, addr, now uint64, lat int) {
	sc.record("store", addr, now, lat)
	if slat := sc.shadow.store(addr, now); slat != lat {
		sc.fail(h, "store", addr, now,
			fmt.Sprintf("latency: optimized=%d shadow=%d", lat, slat))
	}
	sc.compareCounters(h, "store", addr, now)
}

func (sc *selfCheck) onPrefetch(h *Hierarchy, addr, now uint64) {
	sc.record("prefetch", addr, now, -1)
	sc.shadow.prefetch(addr, now)
	sc.compareCounters(h, "prefetch", addr, now)
}

func (sc *selfCheck) onComplete(h *Hierarchy, now uint64) {
	sc.record("complete", 0, now, -1)
	sc.shadow.completeInflight(now)
	sc.compareCounters(h, "complete", 0, now)
}
