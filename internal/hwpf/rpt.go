// Package hwpf implements the hardware stride prefetchers the simulator
// can attach to its demand-load stream, behind the pluggable Prefetcher
// interface (see prefetcher.go):
//
//   - rpt: a reference prediction table in the style the paper's Related
//     Work cites as the hardware alternative (Chen & Baer; Dahlgren &
//     Stenström) — a PC-indexed table records each load's last address and
//     stride and walks a four-state automaton; loads in the steady state
//     trigger prefetches of the predicted next lines. This file.
//   - baer-chen: the textbook INIT/TRANSIENT/STEADY/NO_PRED automaton with
//     raw stride comparison and a degree/distance aggressiveness knob
//     (baerchen.go).
//   - tracker: a Hermes-style bounded tracker deque matching line-granular
//     strides, with local issued/useful feedback counters (tracker.go).
//   - multi-stride: periodic stride-sequence detection covering the
//     interleaved multi-strided access patterns of Blom et al.
//     (multistride.go).
//
// The paper argues software profile-guided prefetching is a viable
// alternative that avoids the hardware table's capacity pressure ("for a
// program with many loads that miss cache, the hardware tables may
// overflow and cause useful strides to be thrown away"); the benchmark
// harness compares every scheme on the same workloads through the arena
// figure (package experiments).
package hwpf

import (
	"fmt"

	"stridepf/internal/cache"
	"stridepf/internal/obs"
)

// state is the RPT automaton state.
type state uint8

const (
	initial state = iota
	transient
	steady
	noPred
)

// Config sizes a prefetcher. Every scheme draws from the same knob set;
// fields a scheme has no use for are ignored (the RPT, for example, always
// issues one prefetch per trigger and ignores Degree).
//
// The table schemes (rpt, baer-chen, multi-stride) index their sets by
// masking the pc, as hardware does, so Entries must divide by Ways into a
// power-of-two set count; their constructors panic otherwise.
type Config struct {
	// Entries is the total entry count of table-based schemes; zero selects
	// 64 (a typical small hardware budget). Entries/Ways must be a power of
	// two.
	Entries int
	// Ways is the associativity of table-based schemes; zero selects 4.
	Ways int
	// Distance is how many strides ahead to prefetch once a pattern is
	// confirmed; zero selects 4.
	Distance int
	// Degree is the aggressiveness knob: how many consecutive predictions
	// to issue per confirmed trigger (Baer–Chen, tracker and multi-stride;
	// the RPT predates the knob and always issues one). Zero selects 1.
	Degree int
	// Trackers bounds the tracker scheme's deque; zero selects 16.
	Trackers int
	// MaxPeriod bounds the stride-sequence period the multi-stride scheme
	// detects; zero selects 4.
	MaxPeriod int
	// Disabled suppresses the hierarchy call of every issued prediction
	// while leaving the predictor state machines and counters running.
	// The hwpfneutral simcheck property uses it to assert that observing
	// the load stream is free: a disabled prefetcher must be cycle-exact
	// with no prefetcher at all.
	Disabled bool
}

// tableMask fills the defaults and returns the set-index mask of a
// table-based scheme. It panics when Entries does not divide by Ways or
// the set count is not a power of two.
func (c *Config) tableMask() uint64 {
	c.fill()
	if c.Ways <= 0 || c.Entries <= 0 || c.Entries%c.Ways != 0 {
		panic("hwpf: entries must divide by ways")
	}
	sets := c.Entries / c.Ways
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("hwpf: %d sets (entries/ways) is not a power of two", sets))
	}
	return uint64(sets - 1)
}

func (c *Config) fill() {
	if c.Entries == 0 {
		c.Entries = 64
	}
	if c.Ways == 0 {
		c.Ways = 4
	}
	if c.Distance == 0 {
		c.Distance = 4
	}
	if c.Degree == 0 {
		c.Degree = 1
	}
	if c.Trackers == 0 {
		c.Trackers = 16
	}
	if c.MaxPeriod == 0 {
		c.MaxPeriod = 4
	}
}

type entry struct {
	valid    bool
	tag      uint64
	lastAddr uint64
	stride   int64
	st       state
	lru      uint64
}

// RPT is the reference prediction table. It implements Prefetcher (and
// therefore machine.HWPrefetcher).
type RPT struct {
	cfg     Config
	setMask uint64
	tab     []entry
	tick    uint64

	// Issued counts prefetches triggered; Replaced counts entry evictions
	// (the capacity pressure the paper warns about).
	Issued, Replaced uint64
	// Wrapped counts steady-state predictions discarded because the target
	// address wrapped past either end of the address space. Before these
	// were counted, every negative-stride prediction whose arithmetic went
	// negative vanished silently.
	Wrapped uint64
}

// New returns an empty table.
func New(cfg Config) *RPT {
	mask := cfg.tableMask()
	return &RPT{cfg: cfg, setMask: mask, tab: make([]entry, cfg.Entries)}
}

// Name returns the scheme's registry name.
func (r *RPT) Name() string { return "rpt" }

// Counters returns the table's lifetime counters.
func (r *RPT) Counters() Counters {
	return Counters{Issued: r.Issued, Replaced: r.Replaced, Wrapped: r.Wrapped}
}

// Observe records one execution of the static load identified by pc at
// address addr, updating the automaton and possibly issuing a prefetch
// into hier.
func (r *RPT) Observe(pc uint64, addr uint64, hier *cache.Hierarchy, now uint64) {
	base := int(pc&r.setMask) * r.cfg.Ways
	r.tick++

	// Lookup.
	victim := base
	for w := 0; w < r.cfg.Ways; w++ {
		i := base + w
		e := &r.tab[i]
		if e.valid && e.tag == pc {
			r.update(e, addr, hier, now)
			e.lru = r.tick
			return
		}
		if !e.valid {
			victim = i
			continue
		}
		if r.tab[victim].valid && e.lru < r.tab[victim].lru {
			victim = i
		}
	}
	// Miss: allocate.
	if r.tab[victim].valid {
		r.Replaced++
	}
	r.tab[victim] = entry{valid: true, tag: pc, lastAddr: addr, st: initial, lru: r.tick}
}

// update advances the Chen & Baer automaton for a hit.
func (r *RPT) update(e *entry, addr uint64, hier *cache.Hierarchy, now uint64) {
	newStride := int64(addr) - int64(e.lastAddr)
	match := newStride == e.stride && newStride != 0
	switch e.st {
	case initial:
		if match {
			e.st = steady
		} else {
			e.stride = newStride
			e.st = transient
		}
	case transient:
		if match {
			e.st = steady
		} else {
			e.stride = newStride
			e.st = noPred
		}
	case steady:
		if !match {
			e.st = initial
		}
	case noPred:
		if match {
			e.st = transient
		} else {
			e.stride = newStride
		}
	}
	e.lastAddr = addr
	if e.st == steady {
		// The prediction arithmetic is unsigned with explicit wrap
		// detection. The old signed `target > 0` guard rejected any target
		// whose top bit was set — silently discarding every steady-state
		// prediction of loads walking the upper half of the address space,
		// and discarding downward-stride predictions without a trace.
		delta := e.stride * int64(r.cfg.Distance)
		target, ok := predictTarget(addr, delta)
		if !ok {
			r.Wrapped++
			return
		}
		if !r.cfg.Disabled {
			hier.PrefetchClass(target, now, obs.ClassHW)
		}
		r.Issued++
	}
}
