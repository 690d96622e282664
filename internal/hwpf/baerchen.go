package hwpf

import (
	"stridepf/internal/cache"
	"stridepf/internal/obs"
)

// bcEntry is one Baer–Chen table entry: the load's previous address, its
// candidate stride and the automaton state.
type bcEntry struct {
	valid  bool
	tag    uint64
	prev   uint64
	stride int64
	st     state
	lru    uint64
}

// BaerChen is the textbook Baer–Chen IP-stride prefetcher: a PC-indexed
// set-associative table walking the INIT/TRANSIENT/STEADY/NO_PRED automaton
// with raw stride comparison, plus a degree/distance aggressiveness knob.
//
// It differs from the RPT in this package in two deliberate ways. First,
// the stride comparison is the paper-faithful raw equality (a repeated
// zero delta is a "correct" prediction and reaches STEADY, though a zero
// stride never issues), where the RPT's match requires a non-zero stride.
// Second, a STEADY entry in Degree > 1 configurations issues Degree
// consecutive predictions per trigger — the aggressiveness axis Sung et
// al.'s selection-criteria study sweeps.
type BaerChen struct {
	cfg     Config
	setMask uint64
	tab     []bcEntry
	tick    uint64

	// Issued, Replaced and Wrapped mirror the RPT's counters (see Counters).
	Issued, Replaced, Wrapped uint64
}

// NewBaerChen returns an empty table.
func NewBaerChen(cfg Config) *BaerChen {
	mask := cfg.tableMask()
	return &BaerChen{cfg: cfg, setMask: mask, tab: make([]bcEntry, cfg.Entries)}
}

// Name returns the scheme's registry name.
func (p *BaerChen) Name() string { return "baer-chen" }

// Counters returns the table's lifetime counters.
func (p *BaerChen) Counters() Counters {
	return Counters{Issued: p.Issued, Replaced: p.Replaced, Wrapped: p.Wrapped}
}

// Observe records one execution of the static load identified by pc at
// address addr, advancing the automaton and possibly issuing prefetches.
func (p *BaerChen) Observe(pc uint64, addr uint64, hier *cache.Hierarchy, now uint64) {
	base := int(pc&p.setMask) * p.cfg.Ways
	p.tick++

	victim := base
	for w := 0; w < p.cfg.Ways; w++ {
		i := base + w
		e := &p.tab[i]
		if e.valid && e.tag == pc {
			p.update(e, addr, hier, now)
			e.lru = p.tick
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
	p.tab[victim] = bcEntry{valid: true, tag: pc, prev: addr, st: initial, lru: p.tick}
}

// update advances the Baer–Chen automaton for a table hit:
//
//	INIT      correct -> STEADY      incorrect -> stride := delta, TRANSIENT
//	TRANSIENT correct -> STEADY      incorrect -> stride := delta, NO_PRED
//	STEADY    correct -> STEADY      incorrect -> INIT (stride kept)
//	NO_PRED   correct -> TRANSIENT   incorrect -> stride := delta, NO_PRED
//
// where "correct" is raw equality of the new delta with the stored stride.
func (p *BaerChen) update(e *bcEntry, addr uint64, hier *cache.Hierarchy, now uint64) {
	delta := int64(addr) - int64(e.prev)
	correct := delta == e.stride
	switch e.st {
	case initial:
		if correct {
			e.st = steady
		} else {
			e.stride = delta
			e.st = transient
		}
	case transient:
		if correct {
			e.st = steady
		} else {
			e.stride = delta
			e.st = noPred
		}
	case steady:
		if !correct {
			e.st = initial
		}
	case noPred:
		if correct {
			e.st = transient
		} else {
			e.stride = delta
		}
	}
	e.prev = addr
	if e.st != steady || e.stride == 0 {
		return
	}
	for k := 0; k < p.cfg.Degree; k++ {
		target, ok := predictTarget(addr, e.stride*int64(p.cfg.Distance+k))
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
