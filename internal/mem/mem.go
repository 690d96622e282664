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

	// The page table is a four-level radix tree over the 49-bit page
	// number: three 12-bit directory levels above a 13-bit leaf level.
	dirBits  = 12
	leafBits = 64 - pageShift - 3*dirBits
	dirMask  = 1<<dirBits - 1
	leafMask = 1<<leafBits - 1
)

type (
	page  [pageWords]int64
	leaf  [1 << leafBits]*page
	dir2  [1 << dirBits]*leaf
	dir1  [1 << dirBits]*dir2
	pgdir [1 << dirBits]*dir1
)

// leafCacheSize is the number of leaves the walk cache holds, direct-mapped
// by the low bits of the leaf number (a power of two).
const leafCacheSize = 4

// leafSlot is one walk-cache entry: the leaf covering the pages numbered
// key<<leafBits on, or nil.
type leafSlot struct {
	key uint64
	lf  *leaf
}

// Memory is a sparse 64-bit word-addressable memory. Addresses are byte
// addresses; loads and stores access the aligned 8-byte word containing the
// address (the low three bits are ignored, matching an aligned-only ISA).
//
// Pages are found through a radix page table indexed by page-number bits,
// as a hardware page walker would; directories and pages are allocated as
// stores first reach them. The last page touched is cached in front of the
// table, so the spatially local access runs the interpreter's hot loop
// produces mostly skip the walk. Behind it, a walk cache of the last
// leaves reached (each covering 256 MB of address space) skips the
// directories: a program's data lives in a few such regions, so nearly
// every walk is one lookup.
type Memory struct {
	root     pgdir
	npages   int
	lastKey  uint64
	lastPage *page
	leaves   [leafCacheSize]leafSlot

	// shadow, when non-nil, is the naive reference model every access is
	// replayed against (see shadow.go and EnableSelfCheck).
	shadow *shadowMem
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{}
}

// find returns the page numbered key, or nil when it is unmapped.
func (m *Memory) find(key uint64) *page {
	sl := &m.leaves[key>>leafBits&(leafCacheSize-1)]
	lf := sl.lf
	if lf == nil || sl.key != key>>leafBits {
		if lf = m.walk(key, false); lf == nil {
			return nil
		}
	}
	return lf[key&leafMask]
}

// mapPage returns the page numbered key, mapping it when absent.
func (m *Memory) mapPage(key uint64) *page {
	sl := &m.leaves[key>>leafBits&(leafCacheSize-1)]
	lf := sl.lf
	if lf == nil || sl.key != key>>leafBits {
		lf = m.walk(key, true)
	}
	p := lf[key&leafMask]
	if p == nil {
		p = new(page)
		lf[key&leafMask] = p
		m.npages++
	}
	return p
}

// walk descends the directories to the leaf covering page key and enters
// it in the walk cache. A missing directory ends the walk with nil, or,
// when alloc is set, is mapped on the way.
func (m *Memory) walk(key uint64, alloc bool) *leaf {
	i1 := key >> (leafBits + 2*dirBits)
	d1 := m.root[i1]
	if d1 == nil {
		if !alloc {
			return nil
		}
		d1 = new(dir1)
		m.root[i1] = d1
	}
	i2 := key >> (leafBits + dirBits) & dirMask
	d2 := d1[i2]
	if d2 == nil {
		if !alloc {
			return nil
		}
		d2 = new(dir2)
		d1[i2] = d2
	}
	i3 := key >> leafBits & dirMask
	lf := d2[i3]
	if lf == nil {
		if !alloc {
			return nil
		}
		lf = new(leaf)
		d2[i3] = lf
	}
	m.leaves[key>>leafBits&(leafCacheSize-1)] = leafSlot{key: key >> leafBits, lf: lf}
	return lf
}

// Load returns the word at addr. Unmapped memory reads as zero.
func (m *Memory) Load(addr uint64) int64 {
	key := addr >> pageShift
	var v int64
	p := m.lastPage
	if p != nil && m.lastKey == key {
		v = p[(addr&pageMask)>>3]
	} else if p = m.find(key); p != nil {
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
		p = m.mapPage(key)
		m.lastKey, m.lastPage = key, p
	}
	p[(addr&pageMask)>>3] = v
	if m.shadow != nil {
		m.shadow.checkStore(addr, v)
	}
}

// Mapped reports whether the page containing addr has been touched. The
// machine uses this to ignore prefetches of wild addresses (prefetches are
// non-faulting).
func (m *Memory) Mapped(addr uint64) bool {
	ok := m.find(addr>>pageShift) != nil
	if m.shadow != nil {
		m.shadow.checkMapped(addr, ok)
	}
	return ok
}

// Pages returns the number of mapped pages (for tests and reporting).
func (m *Memory) Pages() int { return m.npages }

// eachPage calls fn for every mapped page in ascending page-number order.
func (m *Memory) eachPage(fn func(key uint64, p *page)) {
	for i1, d1 := range m.root {
		if d1 == nil {
			continue
		}
		for i2, d2 := range d1 {
			if d2 == nil {
				continue
			}
			for i3, lf := range d2 {
				if lf == nil {
					continue
				}
				for i4, p := range lf {
					if p != nil {
						key := uint64(i1)<<(leafBits+2*dirBits) | uint64(i2)<<(leafBits+dirBits) |
							uint64(i3)<<leafBits | uint64(i4)
						fn(key, p)
					}
				}
			}
		}
	}
}

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
