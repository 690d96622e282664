package hwpf

import "testing"

// periodicWant is multi-stride's prediction sequence on the first n
// addresses of a periodic stream: nothing until the period has repeated
// (2·period deltas, so from access 2·period+1 on), then the address the
// stream itself reaches distance accesses later. addrs must extend
// distance addresses past n.
func periodicWant(addrs []uint64, n, period int) []prediction {
	want := make([]prediction, n)
	for i := 2 * period; i < n; i++ {
		want[i] = at(addrs[i+distance])
	}
	return want
}

// TestMultiStridePeriodOneMatchesRPT pins the degenerate case: on a
// constant-stride stream the periodic detector confirms period 1 and
// predicts exactly the RPT's targets, access for access.
func TestMultiStridePeriodOneMatchesRPT(t *testing.T) {
	addrs := walk(0x70_000, 64, 20)
	ms := trainAll(mustScheme(t, "multi-stride", Config{}), 3, addrs)
	checkPredictions(t, ms, trainAll(mustScheme(t, "rpt", Config{}), 3, addrs))
	checkPredictions(t, ms, strideWant(addrs, 64))
}

// TestMultiStrideDetectsAlternatingPattern pins the scheme's reason to
// exist: a +64/+192 alternating stream (a row-of-structs traversal) is
// confirmed as period 2 on the fifth access — the earliest possible, once
// 2*period deltas exist — and predicted cumulatively from then on: each
// prediction is the address the stream itself reaches 4 accesses later.
func TestMultiStrideDetectsAlternatingPattern(t *testing.T) {
	const n = 12
	p := mustScheme(t, "multi-stride", Config{})
	addrs := alternatingAddrs(0x80_000, 64, 192, n+distance)
	checkPredictions(t, trainAll(p, 3, addrs[:n]), periodicWant(addrs, n, 2))
	if c := p.Counters(); c.Issued != 8 {
		t.Errorf("Issued = %d over 12 accesses, want 8", c.Issued)
	}
}

// TestMultiStridePeriodThree extends the pattern check to period 3 with a
// cumulative target that mixes all three deltas.
func TestMultiStridePeriodThree(t *testing.T) {
	const n = 13
	deltas := []int64{64, 128, 256}
	a := uint64(0x90_000)
	var addrs []uint64
	for i := 0; i < n+distance; i++ {
		addrs = append(addrs, a)
		a += uint64(deltas[i%3])
	}
	// Period 3 needs 6 deltas: the first prediction is on access 7.
	checkPredictions(t, trainAll(mustScheme(t, "multi-stride", Config{}), 3, addrs[:n]), periodicWant(addrs, n, 3))
}

// TestMultiStrideSmallestPeriodWins pins the tie-break: a constant stride
// also matches period 2, 3, ... — the detector must report 1.
func TestMultiStrideSmallestPeriodWins(t *testing.T) {
	e := &msEntry{}
	for i := 0; i < 8; i++ {
		e.push(64)
	}
	if per := e.period(); per != 1 {
		t.Errorf("period = %d for a constant delta history, want 1", per)
	}
}

// TestMultiStrideZeroDeltasNeverConfirm pins the non-zero requirement: a
// load stuck on one address repeats delta 0 forever and must not be
// "detected" (a zero-stride pattern predicts the line it already has).
func TestMultiStrideZeroDeltasNeverConfirm(t *testing.T) {
	p := mustScheme(t, "multi-stride", Config{})
	addrs := walk(0xa0_000, 0, 20)
	checkPredictions(t, trainAll(p, 3, addrs), make([]prediction, len(addrs)))
	if c := p.Counters(); c.Issued != 0 || c.Wrapped != 0 {
		t.Errorf("Issued = %d, Wrapped = %d for a zero-stride load, want 0, 0", c.Issued, c.Wrapped)
	}
}

// TestMultiStrideIrregularNoIssue feeds a delta stream with no period <= 4
// and requires silence.
func TestMultiStrideIrregularNoIssue(t *testing.T) {
	deltas := []int64{64, 128, 64, 256, 192, 64, 512, 128, 320, 64, 448, 256}
	a := uint64(0xb0_000)
	addrs := []uint64{a}
	for _, d := range deltas {
		a += uint64(d)
		addrs = append(addrs, a)
	}
	checkPredictions(t, trainAll(mustScheme(t, "multi-stride", Config{}), 3, addrs), make([]prediction, len(addrs)))
}

// TestMultiStrideWrapNearZeroCountedNotIssued is the wrap boundary for the
// periodic predictor: a downward alternating walk near zero pushes the
// cumulative prediction past the bottom. The stream would reach 0x100,
// 0xc0, 0x40 and then 0 four accesses after accesses 5..8.
func TestMultiStrideWrapNearZeroCountedNotIssued(t *testing.T) {
	p := mustScheme(t, "multi-stride", Config{})
	got := trainAll(p, 1, alternatingAddrs(0x400, -64, -128, 8))
	checkPredictions(t, got, []prediction{none, none, none, none, at(0x100), at(0xc0), at(0x40), none})
	if c := p.Counters(); c.Issued != 3 || c.Wrapped != 1 {
		t.Errorf("Issued = %d, Wrapped = %d, want 3, 1", c.Issued, c.Wrapped)
	}
}

// TestMultiStrideCapacityEviction pins the Replaced counter under capacity
// pressure: 16 pcs in a two-set, two-way table evict six times per set.
func TestMultiStrideCapacityEviction(t *testing.T) {
	p := mustScheme(t, "multi-stride", Config{Entries: 4, Ways: 2})
	for pc := uint64(0); pc < 16; pc++ {
		checkPredictions(t, trainAll(p, pc, []uint64{0x1000 * pc}), []prediction{none})
	}
	if got := p.Counters().Replaced; got != 2*6 {
		t.Errorf("Replaced = %d with 16 pcs in a 4-entry table, want %d", got, 2*6)
	}
}

// alternatingAddrs returns n addresses starting at base whose deltas
// alternate d1, d2, d1, d2, ...
func alternatingAddrs(base uint64, d1, d2 int64, n int) []uint64 {
	out := make([]uint64, n)
	a := base
	for i := 0; i < n; i++ {
		out[i] = a
		if i%2 == 0 {
			a += uint64(d1)
		} else {
			a += uint64(d2)
		}
	}
	return out
}
