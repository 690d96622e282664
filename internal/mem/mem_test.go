package mem

import (
	"testing"
	"testing/quick"
)

func TestLoadStoreRoundTrip(t *testing.T) {
	m := NewMemory()
	m.Store(0x1000, 42)
	if got := m.Load(0x1000); got != 42 {
		t.Errorf("Load = %d, want 42", got)
	}
	if got := m.Load(0x1008); got != 0 {
		t.Errorf("adjacent word = %d, want 0", got)
	}
}

func TestUnalignedAccessesShareWord(t *testing.T) {
	m := NewMemory()
	m.Store(0x1003, 7) // low bits ignored
	if got := m.Load(0x1000); got != 7 {
		t.Errorf("Load(0x1000) = %d, want 7 (same word)", got)
	}
}

func TestUnmappedReadsZero(t *testing.T) {
	m := NewMemory()
	if m.Load(0xdeadbeef) != 0 {
		t.Error("unmapped memory must read zero")
	}
	if m.Mapped(0xdeadbeef) {
		t.Error("reading must not map a page")
	}
}

func TestMemoryQuick(t *testing.T) {
	m := NewMemory()
	model := map[uint64]int64{}
	prop := func(addr uint64, v int64) bool {
		a := addr &^ 7
		m.Store(a, v)
		model[a] = v
		// All previous writes still visible.
		for k, want := range model {
			if m.Load(k) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHeapSequentialLayout(t *testing.T) {
	m := NewMemory()
	h := NewHeap(m, 0x10000, 1<<20)
	a := h.Alloc(24)
	b := h.Alloc(24)
	c := h.Alloc(10) // rounds to 16
	if b-a != 24 {
		t.Errorf("second block at +%d, want +24", b-a)
	}
	if c-b != 24 {
		t.Errorf("third block at +%d, want +24", c-b)
	}
	d := h.Alloc(8)
	if d-c != 16 {
		t.Errorf("alloc(10) consumed %d bytes, want 16", d-c)
	}
	if !m.Mapped(a) {
		t.Error("allocation did not map its page")
	}
}

func TestHeapGap(t *testing.T) {
	m := NewMemory()
	h := NewHeap(m, 0, 1<<20)
	a := h.Alloc(8)
	h.AllocGap(56)
	b := h.Alloc(8)
	if b-a != 64 {
		t.Errorf("gap layout delta = %d, want 64", b-a)
	}
}

func TestHeapExhaustionPanics(t *testing.T) {
	m := NewMemory()
	h := NewHeap(m, 0, 64)
	h.Alloc(32)
	defer func() {
		if recover() == nil {
			t.Error("over-allocation did not panic")
		}
	}()
	h.Alloc(64)
}

// TestHeapTryAllocRefuses: the program-facing allocation returns 0 for a
// negative size or one the heap cannot hold, and leaves the heap as it was.
func TestHeapTryAllocRefuses(t *testing.T) {
	h := NewHeap(NewMemory(), 0x1000, 64)
	if a := h.TryAlloc(32); a != 0x1000 {
		t.Fatalf("TryAlloc(32) = %#x, want 0x1000", a)
	}
	for _, size := range []int64{-1, -1 << 62, 33, 1 << 62} {
		if a := h.TryAlloc(size); a != 0 || h.Next() != 0x1020 {
			t.Errorf("TryAlloc(%d) = %#x with next %#x, want 0 and an untouched heap", size, a, h.Next())
		}
	}
	if a := h.TryAlloc(32); a != 0x1020 {
		t.Errorf("TryAlloc(32) after refusals = %#x, want 0x1020", a)
	}
}

// TestRadixPageTableBoundaries stores and loads at page 0, on each side of
// every radix-level boundary of the page number, and at the top of the
// address space, all under the shadow model. It checks Load, Mapped, Pages
// and the address-ordered Fingerprint walk, a load then a store within one
// page and across each boundary, and that write order does not change the
// fingerprint.
func TestRadixPageTableBoundaries(t *testing.T) {
	var keys []uint64 // page numbers
	keys = append(keys, 0, 1)
	for _, b := range []uint{leafBits, leafBits + dirBits, leafBits + 2*dirBits} {
		keys = append(keys, 1<<b-1, 1<<b)
	}
	keys = append(keys, 1<<(64-pageShift)-2, 1<<(64-pageShift)-1)
	var addrs []uint64 // first and last word of each page
	for _, k := range keys {
		addrs = append(addrs, k<<pageShift, k<<pageShift|(pageMask&^7))
	}
	if top := addrs[len(addrs)-1]; top != 1<<64-8 {
		t.Fatalf("last address %#x, want 2^64-8", top)
	}

	write := func(order []int) *Memory {
		m := NewMemory()
		m.EnableSelfCheck()
		for _, i := range order {
			m.Store(addrs[i], int64(i+1))
		}
		return m
	}
	fwd, rev := make([]int, len(addrs)), make([]int, len(addrs))
	for i := range addrs {
		fwd[i], rev[len(addrs)-1-i] = i, i
	}
	a, b := write(fwd), write(rev)
	for i, addr := range addrs {
		if got := a.Load(addr); got != int64(i+1) {
			t.Errorf("Load(%#x) = %d, want %d", addr, got, i+1)
		}
		if !a.Mapped(addr) {
			t.Errorf("Mapped(%#x) = false after a store", addr)
		}
	}
	// Pages between the written ones stay unmapped and read zero.
	for _, k := range []uint64{2, 1<<leafBits + 1, 1<<(leafBits+dirBits) + 1, 1<<(leafBits+2*dirBits) + 1} {
		if a.Mapped(k<<pageShift) || a.Load(k<<pageShift) != 0 {
			t.Errorf("page %#x mapped or non-zero without a store", k)
		}
	}
	if a.Pages() != len(keys) || b.Pages() != len(keys) {
		t.Fatalf("Pages = %d/%d, want %d", a.Pages(), b.Pages(), len(keys))
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("fingerprint depends on write order")
	}
	var walked []uint64
	a.eachPage(func(k uint64, _ *page) { walked = append(walked, k) })
	if len(walked) != len(keys) {
		t.Fatalf("walk visited %d pages, want %d", len(walked), len(keys))
	}
	for i := range keys {
		if walked[i] != keys[i] {
			t.Fatalf("walk order %#x, want ascending %#x", walked, keys)
		}
	}

	// A load then a store on one page, and across each boundary (last word
	// of the lower page to the first word of the upper one), then back.
	before := a.Fingerprint()
	for i := 0; i+3 < len(addrs); i += 4 {
		lastLow, firstHigh := addrs[i+1], addrs[i+2]
		if got := a.Load(addrs[i]); got != int64(i+1) {
			t.Errorf("same-page Load(%#x) = %d, want %d", addrs[i], got, i+1)
		}
		a.Store(addrs[i]+8, 77)
		if got := a.Load(lastLow); got != int64(i+2) {
			t.Errorf("cross-page Load(%#x) = %d, want %d", lastLow, got, i+2)
		}
		a.Store(firstHigh, 88)
		if got := a.Load(firstHigh); got != 88 {
			t.Errorf("cross-page Load(%#x) = %d, want 88", firstHigh, got)
		}
		a.Store(lastLow, 99)
	}
	if a.Pages() != len(keys) {
		t.Errorf("loads and stores on mapped pages changed Pages to %d", a.Pages())
	}
	if a.Fingerprint() == before {
		t.Error("fingerprint did not change after the stores")
	}
}
