package cache

import "math/bits"

// LineTable is a fixed-capacity map from cache-line numbers to small
// values, laid out the way a hardware table would be: one open-addressed
// slot array with twice as many slots as the capacity, linear probing from
// a multiplicative hash, and backward-shift deletion (no tombstones, so a
// lookup never probes past the end of its cluster). It never allocates
// after construction. The hierarchy's harm-window victims and the tracker
// prefetcher's issued-line feedback both use it.
//
// Keys are stored as line+1 so that zero marks an empty slot; a line must
// therefore be below 1<<64-1, which every line number (an address shifted
// right by a line size of at least two bytes) is. A one-bit-per-slot
// occupancy map sits in front of the slots: most lookups are for absent
// lines, and when the home slot is empty the answer comes from the small
// map without touching the large slot array.
type LineTable struct {
	keys  []uint64 // line+1, or 0 for an empty slot
	vals  []uint8
	used  []uint64 // bit i set iff keys[i] != 0
	n     int
	limit int
	shift uint // 64 - log2(len(keys))
}

// NewLineTable returns an empty table holding up to capacity lines.
func NewLineTable(capacity int) *LineTable {
	if capacity <= 0 {
		panic("cache: line table needs a positive capacity")
	}
	bitsN := bits.Len(uint(2*capacity - 1)) // slots: 2*capacity rounded up to a power of two
	slots := 1 << bitsN
	return &LineTable{
		keys:  make([]uint64, slots),
		vals:  make([]uint8, slots),
		used:  make([]uint64, (slots+63)/64),
		limit: capacity,
		shift: uint(64 - bitsN),
	}
}

// home returns the slot a key's probe sequence starts at.
func (t *LineTable) home(key uint64) int {
	return int((key * 0x9e3779b97f4a7c15) >> t.shift)
}

// occupied reports whether slot i holds a key.
func (t *LineTable) occupied(i int) bool { return t.used[i>>6]&(1<<(i&63)) != 0 }

// find returns the slot holding line, or -1.
func (t *LineTable) find(line uint64) int {
	key := line + 1
	i := t.home(key)
	if !t.occupied(i) {
		return -1
	}
	mask := len(t.keys) - 1
	for ; ; i = (i + 1) & mask {
		switch t.keys[i] {
		case key:
			return i
		case 0:
			return -1
		}
	}
}

// Put stores v for line, overwriting any value it already has. It reports
// false, storing nothing, when line is new and the table is at capacity.
func (t *LineTable) Put(line uint64, v uint8) bool {
	key := line + 1
	mask := len(t.keys) - 1
	i := t.home(key)
	for ; t.occupied(i); i = (i + 1) & mask {
		if t.keys[i] == key {
			t.vals[i] = v
			return true
		}
	}
	if t.n == t.limit {
		return false
	}
	t.keys[i], t.vals[i] = key, v
	t.used[i>>6] |= 1 << (i & 63)
	t.n++
	return true
}

// Take removes line and returns its value.
func (t *LineTable) Take(line uint64) (v uint8, ok bool) {
	if t.n == 0 {
		return 0, false
	}
	i := t.find(line)
	if i < 0 {
		return 0, false
	}
	v = t.vals[i]
	t.n--
	// Backward-shift deletion: pull each later member of the cluster into
	// the hole when the hole lies on its probe path, so every remaining
	// key stays reachable from its home slot without tombstones.
	mask := len(t.keys) - 1
	for j := (i + 1) & mask; t.keys[j] != 0; j = (j + 1) & mask {
		if (j-t.home(t.keys[j]))&mask >= (j-i)&mask {
			t.keys[i], t.vals[i] = t.keys[j], t.vals[j]
			i = j
		}
	}
	t.keys[i] = 0
	t.used[i>>6] &^= 1 << (i & 63)
	return v, true
}

// Reset empties the table in place.
func (t *LineTable) Reset() {
	if t.n > 0 {
		clear(t.keys)
		clear(t.used)
		t.n = 0
	}
}
