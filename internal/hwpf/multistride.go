package hwpf

// msEntry is one multi-stride table entry: the load's previous address and
// a ring of its most recent deltas (2×maxPeriod of them, enough to confirm
// any period up to maxPeriod twice over).
type msEntry struct {
	prev uint64
	hist [2 * maxPeriod]int64
	pos  int // ring slot the next delta goes to
	n    int // deltas recorded, saturating at len(hist)
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

// period returns the smallest period p <= maxPeriod such that the last p
// deltas equal the p before them with at least one non-zero, or 0 when no
// such period has been confirmed yet.
func (e *msEntry) period() int {
	for p := 1; p <= maxPeriod; p++ {
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

// multiStride is a stride-sequence prefetcher covering the interleaved
// multi-strided access patterns of Blom et al.: loads that walk memory with
// a short repeating *sequence* of strides (e.g. +64, +192, +64, +192 from a
// row-of-structs traversal) rather than one constant stride. Each PC's
// entry keeps a ring of recent deltas; once the last p deltas repeat the p
// before them (the smallest such p <= maxPeriod wins), the entry predicts
// forward by replaying the periodic delta sequence cumulatively, distance
// steps ahead.
//
// A period-1 pattern degenerates to the plain stride case, so on constant-
// stride streams multi-stride predicts the same targets as the RPT; its
// value is the p > 1 coverage the single-stride automatons can never reach
// (they flap between TRANSIENT and NO_PRED on alternating deltas).
type multiStride struct {
	tags tagStore
	tab  []msEntry
	c    Counters
}

func newMultiStride(cfg Config) *multiStride {
	tags := newTagStore(cfg)
	return &multiStride{tags: tags, tab: make([]msEntry, len(tags.tags))}
}

// Name returns the scheme's registry name.
func (p *multiStride) Name() string { return "multi-stride" }

// Counters returns the table's lifetime counters.
func (p *multiStride) Counters() Counters {
	c := p.c
	c.Replaced = p.tags.replaced
	return c
}

// Train records one execution of the static load identified by pc at
// address addr, updating its delta history and predicting once a period
// is confirmed.
func (p *multiStride) Train(pc, addr uint64) (uint64, bool) {
	i, hit := p.tags.find(pc)
	e := &p.tab[i]
	if !hit {
		*e = msEntry{prev: addr}
		return 0, false
	}
	e.push(int64(addr) - int64(e.prev))
	e.prev = addr
	per := e.period()
	if per == 0 {
		return 0, false
	}
	// The delta j steps ahead of the latest equals the recorded delta
	// per-1-((j-1) mod per) back from it, so the cumulative offset walks
	// the repeating sequence exactly; back counts that index down,
	// wrapping from 0 to per-1.
	cum, back := int64(0), per-1
	for j := 0; j < distance; j++ {
		cum += e.at(back)
		if back--; back < 0 {
			back = per - 1
		}
	}
	return p.c.predict(addr, cum)
}
