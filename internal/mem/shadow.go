// Shadow-model self-checking for the simulated memory.
//
// Memory's optimized layout — a radix page table with a walk cache of
// leaves, and the last-touched page cached in front of both — is validated
// here by a naive reference model: a Go map of pages with no cache at all. Every Load and Store
// is replayed against it and the observed word value must agree. Mapped
// queries are cross-checked too, since the machine's non-faulting prefetch
// path depends on them.
package mem

import (
	"fmt"
	"hash/fnv"
	"strings"
)

// AccessEvent is one recorded memory access, kept in a ring for divergence
// reports.
type AccessEvent struct {
	// Seq is the access sequence number (1-based).
	Seq uint64
	// Op is "load", "store" or "mapped".
	Op string
	// Addr is the byte address.
	Addr uint64
	// Val is the value loaded or stored (0/1 for "mapped").
	Val int64
}

func (e AccessEvent) String() string {
	return fmt.Sprintf("#%d %-6s addr=%#x val=%d", e.Seq, e.Op, e.Addr, e.Val)
}

// DivergenceError reports the first access at which the optimized memory
// and its shadow disagreed.
type DivergenceError struct {
	// Op and Addr identify the diverging access.
	Op   string
	Addr uint64
	// Detail describes the mismatch.
	Detail string
	// Events is the trace of recent accesses, oldest first, ending with the
	// diverging one.
	Events []AccessEvent
}

func (e *DivergenceError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mem: shadow-model divergence at %s addr=%#x: %s", e.Op, e.Addr, e.Detail)
	if len(e.Events) > 0 {
		fmt.Fprintf(&b, "\nrecent accesses (oldest first):")
		for _, ev := range e.Events {
			fmt.Fprintf(&b, "\n  %s", ev)
		}
	}
	return b.String()
}

// memCheckRing is the number of recent accesses kept for reports.
const memCheckRing = 32

// shadowMem is the naive reference memory: a page map consulted on every
// access, with no last-page cache.
type shadowMem struct {
	pages map[uint64]*page
	ring  [memCheckRing]AccessEvent
	seq   uint64
}

// EnableSelfCheck attaches a naive shadow memory that cross-checks every
// subsequent Load, Store and Mapped call. It must be called while the
// memory is still empty (machine.Config.SelfCheck does this before any
// setup writes). On the first disagreement the memory panics with a
// *DivergenceError, which machine.Run converts into an ordinary error.
func (m *Memory) EnableSelfCheck() {
	if m.npages > 0 {
		panic(fmt.Sprintf("mem: EnableSelfCheck on non-empty memory (%d pages mapped)", m.npages))
	}
	m.shadow = &shadowMem{pages: make(map[uint64]*page)}
}

// SelfChecked reports whether a shadow model is attached.
func (m *Memory) SelfChecked() bool { return m.shadow != nil }

func (s *shadowMem) record(op string, addr uint64, val int64) {
	s.seq++
	s.ring[s.seq%memCheckRing] = AccessEvent{Seq: s.seq, Op: op, Addr: addr, Val: val}
}

func (s *shadowMem) events() []AccessEvent {
	var out []AccessEvent
	start := uint64(0)
	if s.seq > memCheckRing {
		start = s.seq - memCheckRing
	}
	for q := start + 1; q <= s.seq; q++ {
		out = append(out, s.ring[q%memCheckRing])
	}
	return out
}

func (s *shadowMem) fail(op string, addr uint64, detail string) {
	panic(&DivergenceError{Op: op, Addr: addr, Detail: detail, Events: s.events()})
}

func (s *shadowMem) load(addr uint64) int64 {
	p := s.pages[addr>>pageShift]
	if p == nil {
		return 0
	}
	return p[(addr&pageMask)>>3]
}

func (s *shadowMem) store(addr uint64, v int64) {
	key := addr >> pageShift
	p := s.pages[key]
	if p == nil {
		p = new(page)
		s.pages[key] = p
	}
	p[(addr&pageMask)>>3] = v
}

// checkLoad replays a load on the shadow and compares the observed value.
func (s *shadowMem) checkLoad(addr uint64, got int64) {
	s.record("load", addr, got)
	if want := s.load(addr); want != got {
		s.fail("load", addr, fmt.Sprintf("value: optimized=%d shadow=%d", got, want))
	}
}

// checkStore replays a store on the shadow.
func (s *shadowMem) checkStore(addr uint64, v int64) {
	s.record("store", addr, v)
	s.store(addr, v)
}

// checkMapped compares a page-mapped query.
func (s *shadowMem) checkMapped(addr uint64, got bool) {
	v := int64(0)
	if got {
		v = 1
	}
	s.record("mapped", addr, v)
	_, want := s.pages[addr>>pageShift]
	if want != got {
		s.fail("mapped", addr, fmt.Sprintf("mapped: optimized=%v shadow=%v", got, want))
	}
}

// Fingerprint returns a deterministic 64-bit digest of the full memory
// contents (all mapped pages, in address order). Differential checkers use
// it to assert that two executions left identical memory — e.g. that
// enabling prefetch issue never changes architectural state.
func (m *Memory) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	m.eachPage(func(k uint64, p *page) {
		put(k)
		for _, w := range p {
			put(uint64(w))
		}
	})
	return h.Sum64()
}
