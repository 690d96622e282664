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

// TestFusedLoadStoreEquivalence pins Memory.LoadStore against Load-then-
// Store on a twin memory across the interesting address relations:
// same page, different pages, exact aliasing, partial-word aliasing, and
// unmapped pages (the load must still read zero while the store maps).
func TestFusedLoadStoreEquivalence(t *testing.T) {
	cases := []struct {
		name         string
		laddr, saddr uint64
	}{
		{"same-page", 0x4000_0000, 0x4000_0008},
		{"cross-page", 0x4000_0000, 0x5000_0000},
		{"alias-exact", 0x4000_0100, 0x4000_0100},
		{"alias-word", 0x4000_0104, 0x4000_0101},
		{"unmapped-same-page", 0x6000_0000, 0x6000_0040},
		{"unmapped-cross-page", 0x6000_0000, 0x7000_0000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seed := func() *Memory {
				m := NewMemory()
				m.Store(0x4000_0000, 111)
				m.Store(0x4000_0008, 222)
				m.Store(0x4000_0100, 333)
				m.Store(0x5000_0000, 444)
				return m
			}
			a, b := seed(), seed()
			rv := a.LoadStore(tc.laddr, tc.saddr, 999)
			want := b.Load(tc.laddr)
			b.Store(tc.saddr, 999)
			if rv != want {
				t.Errorf("LoadStore returned %d, Load-then-Store loads %d (load must see the pre-store word)", rv, want)
			}
			if af, bf := a.Fingerprint(), b.Fingerprint(); af != bf {
				t.Errorf("memory images diverge: LoadStore=%#x sequential=%#x", af, bf)
			}
			if ap, bp := a.Pages(), b.Pages(); ap != bp {
				t.Errorf("mapped pages diverge: LoadStore=%d sequential=%d", ap, bp)
			}
		})
	}
}

// TestFusedLoadStoreSelfCheck runs LoadStore under the shadow model, which
// replays every access against a naive map: the fused form must present the
// same load-then-store event order the shadow expects.
func TestFusedLoadStoreSelfCheck(t *testing.T) {
	m := NewMemory()
	m.EnableSelfCheck()
	m.Store(0x4000_0000, 7)
	if got := m.LoadStore(0x4000_0000, 0x4000_0008, 8); got != 7 {
		t.Errorf("LoadStore = %d, want 7", got)
	}
	if got := m.LoadStore(0x4000_0008, 0x4000_0008, 9); got != 8 {
		t.Errorf("aliasing LoadStore = %d, want 8 (pre-store word)", got)
	}
	if got := m.LoadStore(0x9000_0000, 0x9000_0000, 1); got != 0 {
		t.Errorf("unmapped LoadStore = %d, want 0", got)
	}
}

// TestRadixPageTableBoundaries stores and loads at page 0, on each side of
// every radix-level boundary of the page number, and at the top of the
// address space, all under the shadow model. It checks Load, Mapped, Pages
// and the address-ordered Fingerprint walk, LoadStore within one page and
// across each boundary, and that write order does not change the
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

	// LoadStore on one page, and across each boundary (last word of the
	// lower page to the first word of the upper one), then back.
	before := a.Fingerprint()
	for i := 0; i+3 < len(addrs); i += 4 {
		lastLow, firstHigh := addrs[i+1], addrs[i+2]
		if got := a.LoadStore(addrs[i], addrs[i]+8, 77); got != int64(i+1) {
			t.Errorf("same-page LoadStore(%#x) = %d, want %d", addrs[i], got, i+1)
		}
		if got := a.LoadStore(lastLow, firstHigh, 88); got != int64(i+2) {
			t.Errorf("cross-page LoadStore(%#x, %#x) = %d, want %d", lastLow, firstHigh, got, i+2)
		}
		if got := a.LoadStore(firstHigh, lastLow, 99); got != 88 {
			t.Errorf("cross-page LoadStore(%#x, %#x) = %d, want 88", firstHigh, lastLow, got)
		}
	}
	if a.Pages() != len(keys) {
		t.Errorf("LoadStore on mapped pages changed Pages to %d", a.Pages())
	}
	if a.Fingerprint() == before {
		t.Error("fingerprint did not change after LoadStore writes")
	}
}
