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
