package cache

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"stridepf/internal/obs"
)

// TestVictimTableOverflow drives more prefetch-eviction victims than the
// harm-window table holds and pins its bound: the first victimTableCap are
// tracked, the rest only counted. The single-set, direct-mapped L1 makes
// every step deterministic: demand-load D_i, then prefetch P_i into the
// same set, whose fill evicts the demand-owned D_i and opens its window.
func TestVictimTableOverflow(t *testing.T) {
	const extra = 5
	const n = victimTableCap + extra
	h := NewHierarchy(HierarchyConfig{
		Levels:     []Config{{Name: "L1D", Size: 64, Assoc: 1, LineSize: 64, HitLatency: 2}},
		MemLatency: 100,
	})
	col := obs.NewCollector(nil)
	h.EnableObs(col)
	demand := func(i int) uint64 { return uint64(2*i) * 64 }
	pf := func(i int) uint64 { return uint64(2*i+1) * 64 }
	now := uint64(0)
	for i := 0; i < n; i++ {
		h.Load(demand(i), now)
		h.PrefetchClass(pf(i), now+1, obs.ClassSSST)
		now += 200
		h.CompleteInflight(now)
	}
	if col.VictimOverflow != extra {
		t.Fatalf("VictimOverflow = %d, want %d", col.VictimOverflow, extra)
	}
	harmful := func() uint64 { return col.Classes[obs.ClassSSST].Harmful }

	// A demand miss on a tracked victim charges the evicting class, once.
	h.Load(demand(0), now)
	if harmful() != 1 {
		t.Fatalf("Harmful after missing on tracked victim = %d, want 1", harmful())
	}
	// A demand miss on an overflowed victim charges nothing.
	h.Load(demand(n-1), now+1)
	if harmful() != 1 {
		t.Fatalf("Harmful after missing on overflowed victim = %d, want 1", harmful())
	}
	// Refilling a victim into L1 closes its window: a prefetch brings D_1
	// back, a demand load pushes it out again, and the later demand miss
	// on it is no longer harm.
	h.PrefetchClass(demand(1), now+2, obs.ClassSSST)
	now += 400
	h.CompleteInflight(now)
	h.Load(demand(2), now)
	h.Load(demand(1), now+1)
	if harmful() != 2 {
		// demand(2) was itself a tracked victim: that miss is the second
		// charge, and demand(1) must not add a third.
		t.Fatalf("Harmful = %d, want 2 (D_2 tracked; D_1's window closed by its refill)", harmful())
	}
}

// lookup returns line's value through the table's probe, as Take would
// find it.
func lookup(t *LineTable, line uint64) (uint8, bool) {
	if i := t.find(line); i >= 0 {
		return t.vals[i], true
	}
	return 0, false
}

// TestLineTableMatchesMap runs random puts, takes and lookups against a Go map
// on a small table. The key pool is built from keys that share home slots
// and from keys whose home is the last slot, so clusters wrap around the
// end of the slot array: backward-shift deletion must keep every
// remaining key reachable across the wrap.
func TestLineTableMatchesMap(t *testing.T) {
	const capacity = 8
	probe := NewLineTable(capacity)
	slots := len(probe.keys)
	var pool []uint64
	perHome := map[int]int{}
	for k := uint64(0); len(pool) < 40; k++ {
		h := probe.home(k + 1)
		if h == slots-1 || h == slots-2 || (h < 3 && perHome[h] < 3) {
			pool = append(pool, k)
			perHome[h]++
		}
	}
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		tab := NewLineTable(capacity)
		ref := map[uint64]uint8{}
		for op := 0; op < 400; op++ {
			k := pool[rng.Intn(len(pool))]
			switch rng.Intn(3) {
			case 0:
				v := uint8(rng.Intn(250) + 1)
				_, had := ref[k]
				stored := tab.Put(k, v)
				if want := had || len(ref) < capacity; stored != want {
					t.Fatalf("round %d op %d: Put(%d) = %v, want %v (len %d)", round, op, k, stored, want, len(ref))
				}
				if stored {
					ref[k] = v
				}
			case 1:
				v, ok := tab.Take(k)
				rv, rok := ref[k]
				if ok != rok || v != rv {
					t.Fatalf("round %d op %d: Take(%d) = %d,%v, want %d,%v", round, op, k, v, ok, rv, rok)
				}
				delete(ref, k)
			default:
				v, ok := lookup(tab, k)
				rv, rok := ref[k]
				if ok != rok || v != rv {
					t.Fatalf("round %d op %d: lookup(%d) = %d,%v, want %d,%v", round, op, k, v, ok, rv, rok)
				}
			}
			if tab.n != len(ref) {
				t.Fatalf("round %d op %d: %d lines held, want %d", round, op, tab.n, len(ref))
			}
			for rk, rv := range ref {
				if v, ok := lookup(tab, rk); !ok || v != rv {
					t.Fatalf("round %d op %d: key %d unreachable after op (got %d,%v want %d)", round, op, rk, v, ok, rv)
				}
			}
		}
		if round%2 == 0 {
			tab.Reset()
			for _, k := range pool {
				if _, ok := lookup(tab, k); ok {
					t.Fatalf("round %d: key %d survived Reset", round, k)
				}
			}
		}
	}
}

// TestGeometryPanics pins the configurations the fixed tables cannot hold:
// each must panic at construction instead of misbehaving later.
func TestGeometryPanics(t *testing.T) {
	l1 := Config{Name: "L1D", Size: 1 << 10, Assoc: 2, LineSize: 64, HitLatency: 2}
	cases := []struct {
		name  string
		build func()
		want  string
	}{
		{"negative MaxInFlight", func() {
			NewHierarchy(HierarchyConfig{Levels: []Config{l1}, MemLatency: 100, MaxInFlight: -1})
		}, "MaxInFlight"},
		{"assoc above 16", func() {
			New(Config{Name: "W", Size: 17 * 64, Assoc: 17, LineSize: 64})
		}, "assoc 17"},
		{"one-byte lines", func() {
			New(Config{Name: "B", Size: 64, Assoc: 1, LineSize: 1})
		}, "line size"},
		{"size below one line", func() {
			New(Config{Name: "S", Size: 32, Assoc: 1, LineSize: 64})
		}, "not divisible"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("no panic")
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, c.want) {
					t.Fatalf("panic %q does not mention %q", msg, c.want)
				}
			}()
			c.build()
		})
	}
}

// TestSixteenWayLRU fills one 16-way set past capacity, the widest set a
// recency word orders, and checks that eviction follows strict LRU through
// the top nibble.
func TestSixteenWayLRU(t *testing.T) {
	c := New(Config{Name: "W", Size: 16 * 64, Assoc: 16, LineSize: 64, HitLatency: 1})
	for i := uint64(0); i < 16; i++ {
		if _, did := c.Insert(i * 64); did {
			t.Fatalf("fill %d evicted with invalid ways left", i)
		}
	}
	// Touch every line but 5 so that 5 becomes least recently used.
	for i := uint64(0); i < 16; i++ {
		if i != 5 && !c.Lookup(i*64) {
			t.Fatalf("line %d missing", i)
		}
	}
	for i := uint64(16); i < 20; i++ {
		ev, did := c.Insert(i * 64)
		want := uint64(5) // then the order of the touches: 0, 1, 2
		if i > 16 {
			want = i - 17
		}
		if !did || ev != want*64 {
			t.Fatalf("insert %d evicted %#x (did=%v), want %#x", i, ev, did, want*64)
		}
	}
}
