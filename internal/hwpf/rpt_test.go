package hwpf

import "testing"

// prediction is one Train call's result.
type prediction struct {
	target uint64
	ok     bool
}

// none is the result of a call that predicts nothing.
var none = prediction{}

// at is the result of a call that predicts target.
func at(target uint64) prediction { return prediction{target, true} }

// trainAll trains p on addrs under one pc and returns every call's result.
func trainAll(p Prefetcher, pc uint64, addrs []uint64) []prediction {
	out := make([]prediction, len(addrs))
	for i, a := range addrs {
		t, ok := p.Train(pc, a)
		if !ok {
			t = 0
		}
		out[i] = prediction{t, ok}
	}
	return out
}

// checkPredictions compares trainAll's results with want, call by call.
func checkPredictions(t *testing.T, got, want []prediction) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d predictions, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("access %d: predicted %+v, want %+v", i+1, got[i], want[i])
		}
	}
}

// mustScheme returns a fresh prefetcher of the named scheme.
func mustScheme(t testing.TB, name string, cfg Config) Prefetcher {
	t.Helper()
	p, err := NewScheme(name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// walk returns n addresses from base with a constant stride.
func walk(base uint64, stride int64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = base + uint64(int64(i)*stride)
	}
	return out
}

// strideWant is the prediction sequence of the stride automaton on a
// constant-stride walk: nothing on the allocating access and the first
// delta, then distance strides ahead of every further access.
func strideWant(addrs []uint64, stride int64) []prediction {
	want := make([]prediction, len(addrs))
	for i := 2; i < len(addrs); i++ {
		want[i] = at(addrs[i] + uint64(stride*distance))
	}
	return want
}

func TestSteadyStateAfterTwoMatches(t *testing.T) {
	// Three accesses with constant stride: the first allocates, the second
	// learns stride 64 (initial -> transient), the third confirms it
	// (steady) and predicts distance strides ahead.
	got := trainAll(mustScheme(t, "rpt", Config{}), 1, []uint64{0x1000, 0x1040, 0x1080})
	checkPredictions(t, got, []prediction{none, none, at(0x1080 + 4*64)})
}

func TestNoPrefetchOnIrregularStream(t *testing.T) {
	r := mustScheme(t, "rpt", Config{})
	addrs := []uint64{0x1000, 0x9350, 0x2228, 0x77777, 0x31110, 0x5048}
	checkPredictions(t, trainAll(r, 7, addrs), make([]prediction, len(addrs)))
	if c := r.Counters(); c.Issued != 0 {
		t.Errorf("issued %d prefetches on an irregular stream", c.Issued)
	}
}

func TestSteadyRecoversAfterPhaseChange(t *testing.T) {
	r := mustScheme(t, "rpt", Config{})
	first := walk(0x1000, 64, 10)
	checkPredictions(t, trainAll(r, 1, first), strideWant(first, 64))
	// Phase change: one wild address (steady -> initial, stride kept), a
	// new stride (initial -> transient), then its confirmation (steady).
	second := walk(0xFF0000, 128, 7)
	want := strideWant(second, 128)
	checkPredictions(t, trainAll(r, 1, second), want)
	if c := r.Counters(); c.Issued != 8+5 {
		t.Errorf("Issued = %d, want %d", c.Issued, 8+5)
	}
}

func TestCapacityPressureEvicts(t *testing.T) {
	// 64 distinct static loads thrash an 8-entry, 4-set table: each set
	// sees 16 loads, fills its two ways, then evicts 14 times. Each load's
	// three accesses run back to back, so every one reaches steady.
	r := mustScheme(t, "rpt", Config{Entries: 8, Ways: 2})
	for pc := uint64(0); pc < 64; pc++ {
		addrs := walk(0x1000+pc*0x10000, 64, 3)
		checkPredictions(t, trainAll(r, pc, addrs), strideWant(addrs, 64))
	}
	if c := r.Counters(); c.Replaced != 4*14 || c.Issued != 64 {
		t.Errorf("Replaced = %d, Issued = %d, want %d, 64", c.Replaced, c.Issued, 4*14)
	}

	// The victim is the last invalid way, else the least recently used
	// one: in a one-set, two-way table pc 1 lands in the last way, and
	// touching it before pc 3 arrives makes pc 2 the victim.
	p := newStrideTable("rpt", false, Config{Entries: 2, Ways: 2})
	p.Train(1, 0x1000)
	if !p.tags.tags[1].valid || p.tags.tags[1].pc != 1 || p.tags.tags[0].valid {
		t.Fatalf("first allocation landed in %+v, want the last way", p.tags.tags)
	}
	p.Train(1, 0x1040)
	p.Train(2, 0x8000)
	checkPredictions(t, trainAll(p, 1, []uint64{0x1080}), []prediction{at(0x1080 + 4*64)})
	p.Train(3, 0x9000) // evicts pc 2, the least recently used
	checkPredictions(t, trainAll(p, 1, []uint64{0x10c0}), []prediction{at(0x10c0 + 4*64)})
	if c := p.Counters(); c.Replaced != 1 {
		t.Errorf("Replaced = %d, want 1", c.Replaced)
	}
}

func TestZeroStrideDoesNotPrefetch(t *testing.T) {
	r := mustScheme(t, "rpt", Config{})
	addrs := walk(0x4000, 0, 10)
	checkPredictions(t, trainAll(r, 3, addrs), make([]prediction, len(addrs)))
}

func TestDownwardWalkIssuesPrefetches(t *testing.T) {
	// A load walking an array from high addresses to low (stride -64) must
	// reach steady state and predict ahead of the walk, i.e. below the
	// current address. The old signed `target > 0` guard discarded these
	// silently whenever the arithmetic wrapped; predictions that stay in
	// range must issue.
	r := mustScheme(t, "rpt", Config{})
	addrs := walk(0x10_0000, -64, 10)
	checkPredictions(t, trainAll(r, 1, addrs), strideWant(addrs, -64))
	if c := r.Counters(); c.Wrapped != 0 || c.Issued != 8 {
		t.Errorf("Issued = %d, Wrapped = %d on an in-range downward walk, want 8, 0", c.Issued, c.Wrapped)
	}
}

func TestWrappedPredictionCountedNotIssued(t *testing.T) {
	// Walking down right at the bottom of the address space pushes the
	// prediction past zero: it must be counted as wrapped, not silently
	// vanish, and must not issue a wild prefetch. 4*64 below 0x100 is
	// exactly 0, which counts as wrapped too.
	r := mustScheme(t, "rpt", Config{})
	got := trainAll(r, 1, walk(0x200, -64, 6))
	checkPredictions(t, got, []prediction{none, none, at(0x80), at(0x40), none, none})
	if c := r.Counters(); c.Issued != 2 || c.Wrapped != 2 {
		t.Errorf("Issued = %d, Wrapped = %d, want 2, 2", c.Issued, c.Wrapped)
	}
}
