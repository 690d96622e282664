// Package mem provides the simulated flat memory and heap allocator that IR
// programs execute against.
//
// Memory is word-granular (8-byte words at 8-aligned byte addresses) and
// sparsely paged, so workloads can use realistic, widely-spread addresses —
// the address *values* are what the stride profiler observes, so their
// layout matters. The heap allocator supports the allocation-order policies
// that produce (or destroy) stride patterns: the paper attributes the
// strides in parser and gap to objects being allocated in the order they are
// later referenced.
package mem

import "fmt"

const (
	pageShift = 15 // 32 KB pages
	pageWords = 1 << (pageShift - 3)
	pageMask  = (1 << pageShift) - 1
)

type page [pageWords]int64

// Memory is a sparse 64-bit word-addressable memory. Addresses are byte
// addresses; loads and stores access the aligned 8-byte word containing the
// address (the low three bits are ignored, matching an aligned-only ISA).
//
// The last page touched is cached, so the spatially local access runs the
// interpreter's hot loop produces mostly skip the page-table map lookup.
type Memory struct {
	pages    map[uint64]*page
	lastKey  uint64
	lastPage *page

	// shadow, when non-nil, is the naive reference model every access is
	// replayed against (see shadow.go and EnableSelfCheck).
	shadow *shadowMem
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*page)}
}

// Load returns the word at addr. Unmapped memory reads as zero.
func (m *Memory) Load(addr uint64) int64 {
	key := addr >> pageShift
	var v int64
	p := m.lastPage
	if p != nil && m.lastKey == key {
		v = p[(addr&pageMask)>>3]
	} else if p = m.pages[key]; p != nil {
		m.lastKey, m.lastPage = key, p
		v = p[(addr&pageMask)>>3]
	}
	if m.shadow != nil {
		m.shadow.checkLoad(addr, v)
	}
	return v
}

// Store writes the word at addr, mapping the page on demand.
func (m *Memory) Store(addr uint64, v int64) {
	key := addr >> pageShift
	p := m.lastPage
	if p == nil || m.lastKey != key {
		p = m.pages[key]
		if p == nil {
			p = new(page)
			m.pages[key] = p
		}
		m.lastKey, m.lastPage = key, p
	}
	p[(addr&pageMask)>>3] = v
	if m.shadow != nil {
		m.shadow.checkStore(addr, v)
	}
}

// LoadStore performs a load from laddr followed by a store of v to saddr,
// returning the loaded value. It is observably identical to Load(laddr)
// then Store(saddr, v) — including when the addresses alias: the load sees
// the pre-store word — but resolves the page table only once when both
// addresses land on the same page, which the interpreter's fused
// load+store superinstruction exploits.
func (m *Memory) LoadStore(laddr, saddr uint64, v int64) int64 {
	lk := laddr >> pageShift
	if sk := saddr >> pageShift; lk == sk {
		p := m.lastPage
		if p == nil || m.lastKey != lk {
			p = m.pages[lk]
			if p == nil {
				// The store maps the page either way; the load then reads a
				// zero word from it, exactly what Load returns for unmapped
				// memory.
				p = new(page)
				m.pages[lk] = p
			}
			m.lastKey, m.lastPage = lk, p
		}
		rv := p[(laddr&pageMask)>>3]
		if m.shadow != nil {
			m.shadow.checkLoad(laddr, rv)
		}
		p[(saddr&pageMask)>>3] = v
		if m.shadow != nil {
			m.shadow.checkStore(saddr, v)
		}
		return rv
	}
	rv := m.Load(laddr)
	m.Store(saddr, v)
	return rv
}

// Mapped reports whether the page containing addr has been touched. The
// machine uses this to ignore prefetches of wild addresses (prefetches are
// non-faulting).
func (m *Memory) Mapped(addr uint64) bool {
	_, ok := m.pages[addr>>pageShift]
	if m.shadow != nil {
		m.shadow.checkMapped(addr, ok)
	}
	return ok
}

// Pages returns the number of mapped pages (for tests and reporting).
func (m *Memory) Pages() int { return len(m.pages) }

// Heap is a bump allocator over a Memory region. The workloads build their
// input data structures through it before execution, and the OpAlloc
// instruction allocates from it during execution.
type Heap struct {
	mem  *Memory
	base uint64
	next uint64
	end  uint64
}

// NewHeap creates a heap spanning [base, base+size).
func NewHeap(m *Memory, base, size uint64) *Heap {
	return &Heap{mem: m, base: base, next: base, end: base + size}
}

// Alloc returns the address of a fresh block of the given size, 8-aligned.
// It panics when the heap region is exhausted — workload sizing is a
// configuration error, not a runtime condition.
func (h *Heap) Alloc(size int64) uint64 {
	if size < 0 {
		panic(fmt.Sprintf("mem: negative allocation %d", size))
	}
	sz := (uint64(size) + 7) &^ 7
	if h.next+sz > h.end {
		panic(fmt.Sprintf("mem: heap exhausted (base=%#x end=%#x need=%d)", h.base, h.end, sz))
	}
	addr := h.next
	h.next += sz
	// Touch the first and last word so the pages are mapped.
	h.mem.Store(addr, 0)
	if sz >= 8 {
		h.mem.Store(addr+sz-8, 0)
	}
	return addr
}

// TryAlloc is Alloc for a size the simulated program computed: a negative
// size, or one the heap cannot hold, returns 0 instead of panicking.
func (h *Heap) TryAlloc(size int64) uint64 {
	if size < 0 || (uint64(size)+7)&^7 > h.end-h.next {
		return 0
	}
	return h.Alloc(size)
}

// AllocGap skips size bytes without returning them, creating address gaps
// between consecutive allocations (fragmentation modelling).
func (h *Heap) AllocGap(size int64) {
	sz := (uint64(size) + 7) &^ 7
	if h.next+sz > h.end {
		panic("mem: heap exhausted by gap")
	}
	h.next += sz
}

// Next returns the next allocation address (for tests asserting layout).
func (h *Heap) Next() uint64 { return h.next }

// Mem returns the underlying memory.
func (h *Heap) Mem() *Memory { return h.mem }
