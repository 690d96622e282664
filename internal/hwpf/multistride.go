package hwpf

import (
	"stridepf/internal/cache"
	"stridepf/internal/obs"
)

// msEntry is one multi-stride table entry: the load's previous address and
// a ring of its most recent deltas (2×MaxPeriod of them, enough to confirm
// any period up to MaxPeriod twice over). The ring is the entry's own
// fixed slice of the table's backing array; a new occupant reuses it
// without clearing, since n bounds what at may read.
type msEntry struct {
	valid bool
	tag   uint64
	prev  uint64
	lru   uint64
	hist  []int64
	pos   int // ring slot the next delta goes to
	n     int // deltas recorded, saturating at len(hist)
}

// push appends a delta to the ring.
func (e *msEntry) push(d int64) {
	e.hist[e.pos] = d
	if e.pos++; e.pos == len(e.hist) {
		e.pos = 0
	}
	if e.n < len(e.hist) {
		e.n++
	}
}

// at returns the delta i positions back from the latest (at(0) is the most
// recent). Callers must ensure i < n.
func (e *msEntry) at(i int) int64 {
	j := e.pos - 1 - i
	if j < 0 {
		j += len(e.hist)
	}
	return e.hist[j]
}

// period returns the smallest period p <= max such that the last p deltas
// equal the p before them with at least one non-zero, or 0 when no such
// period has been confirmed yet.
func (e *msEntry) period(max int) int {
	for p := 1; p <= max; p++ {
		if e.n < 2*p {
			return 0
		}
		ok, nonzero := true, false
		for i := 0; i < p; i++ {
			d := e.at(i)
			if d != e.at(i+p) {
				ok = false
				break
			}
			if d != 0 {
				nonzero = true
			}
		}
		if ok && nonzero {
			return p
		}
	}
	return 0
}

// MultiStride is a stride-sequence prefetcher covering the interleaved
// multi-strided access patterns of Blom et al.: loads that walk memory with
// a short repeating *sequence* of strides (e.g. +64, +192, +64, +192 from a
// row-of-structs traversal) rather than one constant stride. Each PC's
// entry keeps a ring of recent deltas; once the last p deltas repeat the p
// before them (the smallest such p <= MaxPeriod wins), the entry predicts
// forward by replaying the periodic delta sequence cumulatively, issuing
// the targets Distance .. Distance+Degree-1 steps ahead.
//
// A period-1 pattern degenerates to the plain stride case, so on constant-
// stride streams MultiStride issues the same targets as the RPT; its value
// is the p > 1 coverage the single-stride automatons can never reach (they
// flap between TRANSIENT and NO_PRED on alternating deltas).
type MultiStride struct {
	cfg     Config
	setMask uint64
	tab     []msEntry
	tick    uint64

	// Issued, Replaced and Wrapped mirror the RPT's counters; Detected
	// counts Observe calls that confirmed some period.
	Issued, Replaced, Wrapped, Detected uint64
}

// NewMultiStride returns an empty table.
func NewMultiStride(cfg Config) *MultiStride {
	mask := cfg.tableMask()
	p := &MultiStride{cfg: cfg, setMask: mask, tab: make([]msEntry, cfg.Entries)}
	ring := 2 * cfg.MaxPeriod
	hist := make([]int64, cfg.Entries*ring)
	for i := range p.tab {
		p.tab[i].hist = hist[i*ring : (i+1)*ring : (i+1)*ring]
	}
	return p
}

// Name returns the scheme's registry name.
func (p *MultiStride) Name() string { return "multi-stride" }

// Counters returns the table's lifetime counters.
func (p *MultiStride) Counters() Counters {
	return Counters{Issued: p.Issued, Replaced: p.Replaced, Wrapped: p.Wrapped}
}

// Observe records one execution of the static load identified by pc at
// address addr, updating the delta history and possibly issuing prefetches.
func (p *MultiStride) Observe(pc uint64, addr uint64, hier *cache.Hierarchy, now uint64) {
	base := int(pc&p.setMask) * p.cfg.Ways
	p.tick++

	victim := base
	for w := 0; w < p.cfg.Ways; w++ {
		i := base + w
		e := &p.tab[i]
		if e.valid && e.tag == pc {
			e.push(int64(addr) - int64(e.prev))
			e.prev = addr
			e.lru = p.tick
			p.predict(e, addr, hier, now)
			return
		}
		if !e.valid {
			victim = i
			continue
		}
		if p.tab[victim].valid && e.lru < p.tab[victim].lru {
			victim = i
		}
	}
	if p.tab[victim].valid {
		p.Replaced++
	}
	p.tab[victim] = msEntry{
		valid: true, tag: pc, prev: addr, lru: p.tick,
		hist: p.tab[victim].hist,
	}
}

// predict issues the periodic-sequence predictions for a just-updated
// entry. The delta j steps ahead of the latest equals the recorded delta
// period-1-((j-1) mod period) back from it, so the cumulative offsets walk
// the repeating sequence exactly; back counts that index down, wrapping
// from 0 to period-1.
func (p *MultiStride) predict(e *msEntry, addr uint64, hier *cache.Hierarchy, now uint64) {
	per := e.period(p.cfg.MaxPeriod)
	if per == 0 {
		return
	}
	p.Detected++
	steps := p.cfg.Distance + p.cfg.Degree - 1
	cum := int64(0)
	back := per - 1
	for j := 1; j <= steps; j++ {
		cum += e.at(back)
		if back--; back < 0 {
			back = per - 1
		}
		if j < p.cfg.Distance {
			continue
		}
		target, ok := predictTarget(addr, cum)
		if !ok {
			p.Wrapped++
			continue
		}
		if !p.cfg.Disabled {
			hier.PrefetchClass(target, now, obs.ClassHW)
		}
		p.Issued++
	}
}
