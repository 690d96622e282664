// Package cache simulates the Itanium-like data-memory hierarchy the
// experiments run against: set-associative LRU caches arranged in three
// levels plus main memory, with tracking of in-flight (prefetched) lines.
//
// The hierarchy reproduces the machine of the paper's Section 4: a 16 KB
// 4-way L1D, a 96 KB 6-way unified L2 and a 2 MB 4-way L3 on a 733 MHz
// Itanium. Prefetches model Itanium lfetch: non-binding and non-faulting,
// they start a fill without stalling the pipeline; a demand load that hits
// an in-flight line stalls only for the remaining fill time.
package cache

import "fmt"

// Config describes one cache level.
type Config struct {
	// Name identifies the level in statistics ("L1D", "L2", "L3").
	Name string
	// Size is the capacity in bytes.
	Size int
	// Assoc is the set associativity, at most 16: each set keeps its
	// recency order as one 64-bit word of 4-bit way numbers. New panics on
	// a larger value.
	Assoc int
	// LineSize is the cache-line size in bytes: a power of two, at least 2
	// (the hierarchy requires all levels to share one line size).
	LineSize int
	// HitLatency is the access latency, in cycles, when the line is found
	// at this level.
	HitLatency int
}

// maxAssoc is the widest set a recency word can order.
const maxAssoc = 16

// Cache is one set-associative LRU cache level.
//
// Each set is Assoc slots of keys plus one recency word. A key is the
// resident line + 1, or 0 for an invalid way. The recency word lists the
// set's way numbers as 4-bit nibbles, most recently used in the low
// nibble: valid ways first, in recency order, then invalid ways in
// ascending way order (New and Reset start every set at 0, 1, ...,
// Assoc-1, and only a fill makes a way valid). Moving a way to the front
// is a shift and a mask, and a hit on the most recent way writes nothing.
//
// The back nibble is therefore always the fill's victim: the last invalid
// way while one remains, else the least recently used way. That is
// exactly the policy the shadow model states with timestamps (strict LRU,
// earliest index on ties): every hit or fill gives the touched way a
// fresh, strictly larger stamp, so among valid ways the stamps are
// distinct and the smallest one is simply the least recently touched way.
type Cache struct {
	cfg   Config
	sets  int
	assoc int
	shift uint // log2(LineSize)
	mask  uint64
	keys  []uint64 // sets*assoc entries, set-major: line+1, or 0 when invalid
	order []uint64 // per-set recency word
	// missKey, when non-zero, is the key of a line known to be absent: a
	// missing lookup sets it, and any insert or Reset clears it, since
	// only a fill can make a line present. The fill that follows a miss
	// then takes the back way without scanning the set again.
	missKey uint64

	// Hits and Misses count lookups at this level.
	Hits, Misses uint64

	// prov, when non-nil, carries per-way fill provenance for the
	// observability layer: 0 marks a demand fill, any other value is the
	// issuing prefetch class + 1. It is allocated only by enableObs, so
	// unobserved runs pay a single nil check per probe.
	prov []uint8
	// pfHits / pfEvicted count, per class, demand hits on still-tagged
	// lines and evictions of still-tagged lines at this level.
	pfHits, pfEvicted []uint64
}

// New returns an empty cache with the given geometry. It panics if the
// line size is not a power of two of at least 2, the lines do not divide
// evenly into sets, or the associativity exceeds 16.
func New(cfg Config) *Cache {
	if cfg.LineSize < 2 || cfg.LineSize&(cfg.LineSize-1) != 0 {
		panic(fmt.Sprintf("cache: line size %d is not a power of two of at least 2", cfg.LineSize))
	}
	if cfg.Assoc <= 0 || cfg.Size <= 0 {
		panic(fmt.Sprintf("cache %s: bad size/assoc %d/%d", cfg.Name, cfg.Size, cfg.Assoc))
	}
	if cfg.Assoc > maxAssoc {
		panic(fmt.Sprintf("cache %s: assoc %d exceeds %d", cfg.Name, cfg.Assoc, maxAssoc))
	}
	lines := cfg.Size / cfg.LineSize
	if lines == 0 || lines%cfg.Assoc != 0 {
		panic(fmt.Sprintf("cache %s: %d lines not divisible by assoc %d", cfg.Name, lines, cfg.Assoc))
	}
	sets := lines / cfg.Assoc
	c := &Cache{
		cfg:   cfg,
		sets:  sets,
		assoc: cfg.Assoc,
		keys:  make([]uint64, lines),
		order: make([]uint64, sets),
	}
	for ls := cfg.LineSize; ls > 1; ls >>= 1 {
		c.shift++
	}
	c.mask = uint64(sets - 1)
	if sets&(sets-1) != 0 {
		// Non-power-of-two set counts use modulo indexing.
		c.mask = 0
	}
	c.resetOrder()
	return c
}

// resetOrder gives every set the recency word 0, 1, ..., Assoc-1 from the
// front. Which invalid way a fill takes is not observable, but this order
// makes it the last one by index, as in the shadow model, so divergence
// dumps show both models' ways in the same places.
func (c *Cache) resetOrder() {
	var ord uint64
	for w := c.assoc - 1; w >= 0; w-- {
		ord = ord<<4 | uint64(w)
	}
	for i := range c.order {
		c.order[i] = ord
	}
}

// Config returns the level's configuration.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) setIndex(line uint64) int {
	if c.mask != 0 {
		return int(line & c.mask)
	}
	return int(line % uint64(c.sets))
}

// promote returns recency word ord with the way at position pos moved to
// the front: the ways before it shift back one place.
func promote(ord uint64, pos int) uint64 {
	sh := 4 * uint(pos)
	way := ord >> sh & 0xf
	below := ord & (1<<sh - 1)
	above := ord &^ (1<<(sh+4) - 1) // 1<<64 is 0 in Go, so pos 15 works
	return above | below<<4 | way
}

// Lookup probes the cache for the line containing addr. On a hit the line
// becomes the set's most recently used. It does not fill on miss; use
// Insert.
//
// The probe walks the set in recency order, so the most recently used way
// is compared first: repeated accesses to the same line (the
// zero-stride/same-line streams the paper's Figure 6 fast path targets)
// resolve in one tag compare and leave the recency word untouched.
func (c *Cache) Lookup(addr uint64) bool {
	hit, _ := c.lookupTouch(addr, true)
	return hit
}

// lookupTouch is Lookup with provenance handling. It leaves exactly the
// hit/miss counts and LRU state Lookup would: observation must never change
// simulated behavior. When demand is true and the hit way carries a
// prefetch tag, the tag is consumed (first demand touch) and returned;
// non-demand probes (a prefetch locating its fill source) leave tags alone.
// A miss records the line as known absent for the insert that follows.
func (c *Cache) lookupTouch(addr uint64, demand bool) (hit bool, tag uint8) {
	key := addr>>c.shift + 1
	set := c.setIndex(key - 1)
	base := set * c.assoc
	ord := c.order[set]
	mru := base + int(ord&0xf)
	if k := c.keys[mru]; k == key || (brokenMRUProbe && k != 0) {
		c.Hits++
		return true, c.consumeProv(mru, demand)
	}
	for pos := 1; pos < c.assoc; pos++ {
		if i := base + int(ord>>(4*uint(pos))&0xf); c.keys[i] == key {
			c.order[set] = promote(ord, pos)
			c.Hits++
			return true, c.consumeProv(i, demand)
		}
	}
	c.Misses++
	c.missKey = key
	return false, 0
}

// consumeProv clears and returns way i's prefetch tag on a demand touch.
func (c *Cache) consumeProv(i int, demand bool) uint8 {
	if c.prov == nil || !demand {
		return 0
	}
	tag := c.prov[i]
	if tag != 0 {
		c.prov[i] = 0
		c.pfHits[tag-1]++
	}
	return tag
}

// Contains probes without updating LRU state or statistics.
func (c *Cache) Contains(addr uint64) bool {
	key := addr>>c.shift + 1
	base := c.setIndex(key-1) * c.assoc
	for _, k := range c.keys[base : base+c.assoc] {
		if k == key {
			return true
		}
	}
	return false
}

// Insert fills the line containing addr, evicting the LRU way if the set is
// full. It returns the evicted line's address and whether an eviction
// happened. Inserting a line already present refreshes it in place.
func (c *Cache) Insert(addr uint64) (evicted uint64, didEvict bool) {
	evicted, _, didEvict = c.insertProv(addr, 0)
	return evicted, didEvict
}

// insertProv is Insert with provenance handling: the filled way is tagged
// prov (0 = demand fill), and an eviction reports the victim's tag so the
// hierarchy can classify evicted-unused prefetched lines and open harm
// windows. Eviction decisions and LRU state are identical to Insert's.
func (c *Cache) insertProv(addr uint64, prov uint8) (evicted uint64, evictedProv uint8, didEvict bool) {
	key := addr>>c.shift + 1
	set := c.setIndex(key - 1)
	base := set * c.assoc
	ord := c.order[set]
	absent := c.missKey == key
	c.missKey = 0
	if !absent {
		for pos := 0; pos < c.assoc; pos++ {
			if c.keys[base+int(ord>>(4*uint(pos))&0xf)] == key {
				// Refresh in place keeps the existing tag: a line's
				// lifecycle is owned by whichever fill brought it in.
				c.order[set] = promote(ord, pos)
				return 0, 0, false
			}
		}
	}
	back := c.assoc - 1
	victim := base + int(ord>>(4*uint(back))&0xf)
	c.order[set] = promote(ord, back)
	old := c.keys[victim]
	c.keys[victim] = key
	if c.prov != nil {
		if old != 0 {
			evictedProv = c.prov[victim]
			if evictedProv != 0 {
				c.pfEvicted[evictedProv-1]++
			}
		}
		c.prov[victim] = prov
	}
	if old == 0 {
		return 0, 0, false
	}
	return (old - 1) << c.shift, evictedProv, true
}

// enableObs allocates the provenance arrays; classes bounds the per-class
// counters.
func (c *Cache) enableObs(classes int) {
	c.prov = make([]uint8, len(c.keys))
	c.pfHits = make([]uint64, classes)
	c.pfEvicted = make([]uint64, classes)
}

// residentProv counts still-tagged resident lines per class into out.
func (c *Cache) residentProv(out []uint64) {
	for i, k := range c.keys {
		if k != 0 && c.prov[i] != 0 {
			out[c.prov[i]-1]++
		}
	}
}

// Reset clears contents and statistics.
func (c *Cache) Reset() {
	clear(c.keys)
	c.resetOrder()
	c.missKey = 0
	c.Hits, c.Misses = 0, 0
	if c.prov != nil {
		clear(c.prov)
		clear(c.pfHits)
		clear(c.pfEvicted)
	}
}
