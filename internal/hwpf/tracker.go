package hwpf

import (
	"math/bits"

	"stridepf/internal/cache"
	"stridepf/internal/obs"
)

// trackerEntry is one tracker: the last line-granular address and stride
// seen for a static load.
type trackerEntry struct {
	pc         uint64
	lastLine   uint64
	lastStride int64
}

// Tracker is a Hermes-style stride prefetcher: a small bounded deque of
// per-pc trackers ordered most-recently-used first. Unlike the table
// automatons it predicts from a single stride confirmation — two equal
// consecutive line-granular deltas — trading accuracy for reaction time,
// and it keeps local issued/useful feedback by remembering recently issued
// target lines and crediting them when a demand access arrives.
//
// Everything is line-granular: deltas smaller than a cache line collapse
// to a zero stride and never trigger (the line is already being fetched by
// the demand stream), which is the main behavioral difference from the
// byte-granular table schemes.
type Tracker struct {
	cfg Config
	deq []trackerEntry

	// issued remembers recently issued target lines (bounded FIFO) so a
	// later demand access can be credited as Useful. A line is in issued
	// only while its latest FIFO slot still holds it, so issued never
	// holds more lines than the FIFO has slots and is sized to match.
	issued  *cache.LineTable
	fifo    []uint64
	fifoPos int

	// Lookups, Hits, Inserts, Evictions and StrideMatches are the
	// Hermes-style tracker statistics.
	Lookups, Hits, Inserts, Evictions, StrideMatches uint64
	// Issued, Useful and Wrapped feed Counters.
	Issued, Useful, Wrapped uint64
}

// trackerFeedbackWindow bounds the issued-line memory per tracker slot.
const trackerFeedbackWindow = 8

// NewTracker returns an empty tracker deque.
func NewTracker(cfg Config) *Tracker {
	cfg.fill()
	window := cfg.Trackers * trackerFeedbackWindow
	return &Tracker{
		cfg:    cfg,
		deq:    make([]trackerEntry, 0, cfg.Trackers+1),
		issued: cache.NewLineTable(window),
		fifo:   make([]uint64, window),
	}
}

// Name returns the scheme's registry name.
func (p *Tracker) Name() string { return "tracker" }

// Counters returns the deque's lifetime counters.
func (p *Tracker) Counters() Counters {
	return Counters{Issued: p.Issued, Useful: p.Useful, Replaced: p.Evictions, Wrapped: p.Wrapped}
}

// remember records an issued target line for useful-feedback credit,
// forgetting the oldest once the window is full. The FIFO stores line+1 so
// zero marks an empty slot without colliding with the (real) line 0.
func (p *Tracker) remember(line uint64) {
	if old := p.fifo[p.fifoPos]; old != 0 {
		p.issued.Take(old - 1)
	}
	p.fifo[p.fifoPos] = line + 1
	p.issued.Put(line, 0)
	if p.fifoPos++; p.fifoPos == len(p.fifo) {
		p.fifoPos = 0
	}
}

// Observe records one execution of the static load identified by pc at
// address addr, updating its tracker and possibly issuing prefetches.
func (p *Tracker) Observe(pc uint64, addr uint64, hier *cache.Hierarchy, now uint64) {
	ls := uint64(hier.LineSize())
	shift := uint(bits.TrailingZeros64(ls)) // line sizes are powers of two
	line := addr >> shift
	p.Lookups++
	if _, ok := p.issued.Take(line); ok {
		p.Useful++
	}

	idx := -1
	for i := range p.deq {
		if p.deq[i].pc == pc {
			idx = i
			break
		}
	}
	if idx < 0 {
		// Miss: insert at the front; evict the least-recently-used tracker
		// from the back when full.
		p.Inserts++
		p.deq = append(p.deq, trackerEntry{})
		copy(p.deq[1:], p.deq)
		p.deq[0] = trackerEntry{pc: pc, lastLine: line}
		if len(p.deq) > p.cfg.Trackers {
			p.deq = p.deq[:p.cfg.Trackers]
			p.Evictions++
		}
		return
	}
	p.Hits++
	e := p.deq[idx]
	copy(p.deq[1:idx+1], p.deq[:idx])
	p.deq[0] = e

	stride := int64(line) - int64(e.lastLine)
	match := stride != 0 && stride == e.lastStride
	p.deq[0].lastLine = line
	p.deq[0].lastStride = stride
	if !match {
		return
	}
	p.StrideMatches++
	lineBase := line << shift
	for k := 0; k < p.cfg.Degree; k++ {
		target, ok := predictTarget(lineBase, stride*int64(p.cfg.Distance+k)*int64(ls))
		if !ok {
			p.Wrapped++
			continue
		}
		if !p.cfg.Disabled {
			hier.PrefetchClass(target, now, obs.ClassHW)
		}
		p.Issued++
		p.remember(target >> shift)
	}
}
