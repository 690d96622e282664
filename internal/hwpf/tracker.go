package hwpf

import "stridepf/internal/cache"

// trackerEntry is one tracker: the last line-granular address and stride
// seen for a static load.
type trackerEntry struct {
	pc         uint64
	lastLine   uint64
	lastStride int64
}

// tracker is a Hermes-style stride prefetcher: a small bounded deque of
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
type tracker struct {
	deq []trackerEntry

	// issued remembers recently issued target lines (bounded FIFO) so a
	// later demand access can be credited as Useful. A line is in issued
	// only while its latest FIFO slot still holds it, so issued never
	// holds more lines than the FIFO has slots and is sized to match.
	issued  *cache.LineTable
	fifo    []uint64
	fifoPos int

	// c.Replaced counts deque evictions.
	c Counters
}

// trackerFeedbackWindow bounds the issued-line memory per tracker slot.
const trackerFeedbackWindow = 8

func newTracker() *tracker {
	const window = trackers * trackerFeedbackWindow
	return &tracker{
		deq:    make([]trackerEntry, 0, trackers+1),
		issued: cache.NewLineTable(window),
		fifo:   make([]uint64, window),
	}
}

// Name returns the scheme's registry name.
func (p *tracker) Name() string { return "tracker" }

// Counters returns the deque's lifetime counters.
func (p *tracker) Counters() Counters { return p.c }

// remember records an issued target line for useful-feedback credit,
// forgetting the oldest once the window is full. The FIFO stores line+1 so
// zero marks an empty slot without colliding with the (real) line 0.
func (p *tracker) remember(line uint64) {
	if old := p.fifo[p.fifoPos]; old != 0 {
		p.issued.Take(old - 1)
	}
	p.fifo[p.fifoPos] = line + 1
	p.issued.Put(line, 0)
	if p.fifoPos++; p.fifoPos == len(p.fifo) {
		p.fifoPos = 0
	}
}

// Train records one execution of the static load identified by pc at
// address addr, updating its tracker and predicting on a stride match.
func (p *tracker) Train(pc, addr uint64) (uint64, bool) {
	line := addr / lineSize
	if _, ok := p.issued.Take(line); ok {
		p.c.Useful++
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
		p.deq = append(p.deq, trackerEntry{})
		copy(p.deq[1:], p.deq)
		p.deq[0] = trackerEntry{pc: pc, lastLine: line}
		if len(p.deq) > trackers {
			p.deq = p.deq[:trackers]
			p.c.Replaced++
		}
		return 0, false
	}
	e := p.deq[idx]
	copy(p.deq[1:idx+1], p.deq[:idx])
	stride := int64(line) - int64(e.lastLine)
	p.deq[0] = trackerEntry{pc: pc, lastLine: line, lastStride: stride}
	if stride == 0 || stride != e.lastStride {
		return 0, false
	}
	target, ok := p.c.predict(line*lineSize, stride*distance*lineSize)
	if ok {
		p.remember(target / lineSize)
	}
	return target, ok
}
