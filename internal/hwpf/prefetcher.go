// Package hwpf implements the hardware stride prefetchers the simulator
// can attach to its demand-load stream, behind the Prefetcher interface.
// Every scheme is a pure predictor: it is trained on the (pc, address)
// sequence of program loads and returns the address it would prefetch;
// the machine issues that prediction into its own cache hierarchy.
//
//   - rpt: a reference prediction table in the style the paper's Related
//     Work cites as the hardware alternative (Chen & Baer; Dahlgren &
//     Stenström) — a PC-indexed table records each load's last address and
//     stride and walks a four-state automaton; loads in the steady state
//     predict the address 4 strides ahead (rpt.go).
//   - baer-chen: the same automaton with the textbook raw stride
//     comparison, under which a repeated zero delta counts as correct
//     (rpt.go).
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
	"sort"
)

// Prefetcher is the contract every hardware-prefetcher scheme implements.
// A prefetcher is trained on the demand-load stream — one Train call per
// executed load, identified by a stable per-static-load pc — and predicts
// at most one address per call, which the machine prefetches under
// obs.ClassHW, so the obs layer rolls every scheme up through the same
// accuracy / coverage / timeliness axes.
//
// A prefetcher sees neither the cache hierarchy nor the clock, so it
// cannot change what a run computes, and its predictions and counters
// depend on the load stream alone. It is stateful and single-machine:
// attach a fresh instance to each machine (machine.Config.NewHWPrefetch
// takes a factory for exactly this reason — a table shared across runs
// would train on both their streams).
type Prefetcher interface {
	// Name returns the scheme's registry name ("rpt", "baer-chen", ...).
	Name() string
	// Train records one execution of the static load identified by pc at
	// address addr and returns the address to prefetch, if any.
	Train(pc, addr uint64) (target uint64, ok bool)
	// Counters returns the scheme's lifetime issue-side counters.
	Counters() Counters
}

// Counters is the scheme-side account of a prefetcher's activity. The obs
// layer tracks what became of each prefetch; these counters describe what
// the predictor did, so Issued here reconciles against the obs layer's
// per-class attempt count (see TestRPTCountersReconcile).
type Counters struct {
	// Issued counts predictions handed to the machine (the obs layer
	// splits them into issued / redundant / dropped on its side).
	Issued uint64
	// Useful counts issued prefetches whose target the scheme later saw
	// demanded. Only schemes with local feedback (tracker) maintain it;
	// table-automaton schemes leave it zero and rely on the obs roll-ups.
	Useful uint64
	// Replaced counts predictor-table evictions (the capacity pressure the
	// paper warns hardware tables suffer under).
	Replaced uint64
	// Wrapped counts predictions discarded because the target address
	// wrapped past either end of the address space.
	Wrapped uint64
}

// predict counts and returns the prediction addr+delta: issued, or
// discarded (ok false) when it wrapped past either end of the address
// space.
func (c *Counters) predict(addr uint64, delta int64) (target uint64, ok bool) {
	target, ok = predictTarget(addr, delta)
	if ok {
		c.Issued++
	} else {
		c.Wrapped++
	}
	return target, ok
}

// predictTarget computes addr+delta with explicit unsigned wrap detection.
// The ok result is false when the target wrapped past either end of the
// address space and must be discarded (counted, never silently dropped).
func predictTarget(addr uint64, delta int64) (target uint64, ok bool) {
	target = addr + uint64(delta)
	wrapped := target == 0 ||
		(delta >= 0 && target < addr) || (delta < 0 && target > addr)
	return target, !wrapped
}

const (
	// distance is how many strides (or periodic steps) ahead of the
	// current access a confirmed pattern predicts.
	distance = 4
	// lineSize is the tracker's line granularity: the L1 line size of
	// every hierarchy a prefetcher is attached to.
	lineSize = 64
	// trackers bounds the tracker scheme's deque.
	trackers = 16
	// maxPeriod bounds the stride-sequence period multi-stride detects.
	maxPeriod = 4
)

// Config sizes the table schemes (rpt, baer-chen and multi-stride); the
// tracker ignores it. The tables index their sets by masking the pc, as
// hardware does, so Entries must divide by Ways into a power-of-two set
// count; NewScheme panics otherwise.
type Config struct {
	// Entries is the total entry count; zero selects 64 (a typical small
	// hardware budget).
	Entries int
	// Ways is the associativity; zero selects 4.
	Ways int
}

// DefaultScheme is the scheme the CLI flags select when none is named.
const DefaultScheme = "rpt"

// builders maps scheme names to constructors. Registration is static: the
// arena figure, the simcheck property and the CLI flag all enumerate the
// same set.
var builders = map[string]func(Config) Prefetcher{
	"rpt":          func(cfg Config) Prefetcher { return newStrideTable("rpt", false, cfg) },
	"baer-chen":    func(cfg Config) Prefetcher { return newStrideTable("baer-chen", true, cfg) },
	"tracker":      func(Config) Prefetcher { return newTracker() },
	"multi-stride": func(cfg Config) Prefetcher { return newMultiStride(cfg) },
}

// Schemes lists every registered scheme name in sorted order.
func Schemes() []string {
	out := make([]string, 0, len(builders))
	for name := range builders {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// NewScheme constructs a fresh prefetcher of the named scheme.
func NewScheme(name string, cfg Config) (Prefetcher, error) {
	b, ok := builders[name]
	if !ok {
		return nil, fmt.Errorf("hwpf: unknown scheme %q (want one of %v)", name, Schemes())
	}
	return b(cfg), nil
}

// tagStore is the pc-tagged, set-associative table with LRU replacement
// that the table schemes keep their entries in: slot i of the store tags
// entry i of the scheme's own table.
type tagStore struct {
	ways    int
	setMask uint64
	tick    uint64
	tags    []tag
	// replaced counts evictions of a valid entry.
	replaced uint64
}

// tag is one slot of a tagStore. The valid bit keeps every pc value usable
// as a key.
type tag struct {
	pc    uint64
	lru   uint64
	valid bool
}

// newTagStore fills the Config defaults and returns an empty store. It
// panics when Entries does not divide by Ways or the set count is not a
// power of two.
func newTagStore(cfg Config) tagStore {
	if cfg.Entries == 0 {
		cfg.Entries = 64
	}
	if cfg.Ways == 0 {
		cfg.Ways = 4
	}
	if cfg.Ways <= 0 || cfg.Entries <= 0 || cfg.Entries%cfg.Ways != 0 {
		panic("hwpf: entries must divide by ways")
	}
	sets := cfg.Entries / cfg.Ways
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("hwpf: %d sets (entries/ways) is not a power of two", sets))
	}
	return tagStore{ways: cfg.Ways, setMask: uint64(sets - 1), tags: make([]tag, cfg.Entries)}
}

// find returns the slot of pc's entry and whether pc was already there. On
// a miss it claims the set's victim for pc — the last invalid way, else
// the least recently used one — and the caller initialises the entry.
func (s *tagStore) find(pc uint64) (slot int, hit bool) {
	s.tick++
	base := int(pc&s.setMask) * s.ways
	set := s.tags[base : base+s.ways]
	for i := range set {
		if set[i].valid && set[i].pc == pc {
			set[i].lru = s.tick
			return base + i, true
		}
	}
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
		} else if set[victim].valid && set[i].lru < set[victim].lru {
			victim = i
		}
	}
	if set[victim].valid {
		s.replaced++
	}
	set[victim] = tag{pc: pc, lru: s.tick, valid: true}
	return base + victim, false
}
