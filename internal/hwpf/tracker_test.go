package hwpf

import "testing"

// TestTrackerStrideMatchIssues pins the tracker's reaction time: a single
// stride confirmation (two equal consecutive line deltas) predicts, so a
// constant-stride stream first predicts on its third access, distance
// lines ahead.
func TestTrackerStrideMatchIssues(t *testing.T) {
	const base = uint64(0x40_000)
	got := trainAll(mustScheme(t, "tracker", Config{}), 5, walk(base, 64, 3))
	checkPredictions(t, got, []prediction{none, none, at(base + 2*64 + 4*64)})
}

// TestTrackerUsefulFeedback pins the local issued/useful accounting: on an
// N-access stride stream, predictions run from access 3 (N-2 of them) and
// the demands at accesses 7..N credit exactly N-6 of them as Useful.
func TestTrackerUsefulFeedback(t *testing.T) {
	const n = 50
	p := mustScheme(t, "tracker", Config{})
	addrs := walk(0x50_000, 64, n)
	checkPredictions(t, trainAll(p, 5, addrs), strideWant(addrs, 64))
	if c := p.Counters(); c.Issued != n-2 || c.Useful != n-6 {
		t.Errorf("Issued = %d, Useful = %d, want %d, %d", c.Issued, c.Useful, n-2, n-6)
	}
}

// TestTrackerSubLineStrideNeverTriggers pins the line granularity: a stride
// smaller than a cache line produces line deltas of mostly zero with an
// occasional one, never two equal non-zero deltas in a row, so the demand
// stream (which already fetches each line) is left alone.
func TestTrackerSubLineStrideNeverTriggers(t *testing.T) {
	addrs := walk(0x60_000, 8, 100)
	checkPredictions(t, trainAll(mustScheme(t, "tracker", Config{}), 5, addrs), make([]prediction, len(addrs)))
}

// TestTrackerDequeEviction pins the bounded-deque behaviour: 32 live pcs
// thrash the 16 trackers, every access misses and inserts, and every
// insert past the first 16 evicts.
func TestTrackerDequeEviction(t *testing.T) {
	const rounds = 3
	p := mustScheme(t, "tracker", Config{})
	for round := 0; round < rounds; round++ {
		for pc := uint64(0); pc < 32; pc++ {
			checkPredictions(t, trainAll(p, pc, []uint64{0x1000 * (pc + 1)}), []prediction{none})
		}
	}
	if got := p.Counters().Replaced; got != 32*rounds-trackers {
		t.Errorf("Replaced = %d, want %d", got, 32*rounds-trackers)
	}
	if n := len(p.(*tracker).deq); n != trackers {
		t.Errorf("deque grew to %d entries, bound is %d", n, trackers)
	}
}

// TestTrackerMRUOrderSurvivesPressure pins the deque policy: a pc touched
// every round stays resident while colder pcs churn the back.
func TestTrackerMRUOrderSurvivesPressure(t *testing.T) {
	const hotBase = uint64(0x9_0000)
	p := mustScheme(t, "tracker", Config{})
	for round := uint64(0); round < 6; round++ {
		// The hot pc hits every round after its insert, confirms its stride
		// on its third access and predicts from then on.
		want := none
		if round >= 2 {
			want = at(hotBase + (round+4)*64)
		}
		checkPredictions(t, trainAll(p, 99, []uint64{hotBase + round*64}), []prediction{want})
		// Fifteen cold pcs per round, fresh each time, fill the other slots.
		for j := uint64(0); j < trackers-1; j++ {
			p.Train(100+round*trackers+j, 0x1000)
		}
	}
}

// TestTrackerWrapNearZeroCountedNotIssued is the wrap boundary at line
// granularity: a downward walk whose line-granular prediction crosses zero
// must count Wrapped and predict nothing.
func TestTrackerWrapNearZeroCountedNotIssued(t *testing.T) {
	p := mustScheme(t, "tracker", Config{})
	// Lines 4, 3, 2: the match at line 2 predicts line 2-4, past zero.
	checkPredictions(t, trainAll(p, 1, []uint64{0x100, 0xc0, 0x80}), []prediction{none, none, none})
	if c := p.Counters(); c.Wrapped != 1 || c.Issued != 0 {
		t.Errorf("Wrapped = %d, Issued = %d, want 1, 0", c.Wrapped, c.Issued)
	}
}
