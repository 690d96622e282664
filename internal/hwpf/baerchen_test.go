package hwpf

import "testing"

// stateName makes transition-table failures readable.
func stateName(s state) string {
	switch s {
	case initial:
		return "INIT"
	case transient:
		return "TRANSIENT"
	case steady:
		return "STEADY"
	case noPred:
		return "NO_PRED"
	}
	return "?"
}

// TestBaerChenTransitionTable drives Train through every state × event
// pair of the Baer–Chen automaton, including the NO_PRED re-entry path
// (correct in NO_PRED climbs back to TRANSIENT, never straight to STEADY)
// and the stride-change paths (incorrect in INIT/TRANSIENT/NO_PRED adopts
// the new delta; incorrect in STEADY keeps the old stride).
func TestBaerChenTransitionTable(t *testing.T) {
	const prev = uint64(0x10_000)
	cases := []struct {
		name       string
		st         state
		stride     int64
		addr       uint64 // next address; delta = addr - prev
		wantSt     state
		wantStride int64
		want       prediction // this one call's prediction
	}{
		// INIT: correct confirms straight to STEADY (and predicts);
		// incorrect adopts the delta and tries again from TRANSIENT.
		{"init/correct", initial, 64, prev + 64, steady, 64, at(prev + 64 + 4*64)},
		{"init/incorrect-stride-change", initial, 64, prev + 256, transient, 256, none},
		// TRANSIENT: correct confirms to STEADY; incorrect gives up to
		// NO_PRED with the new candidate stride.
		{"transient/correct", transient, 64, prev + 64, steady, 64, at(prev + 64 + 4*64)},
		{"transient/incorrect-stride-change", transient, 64, prev + 256, noPred, 256, none},
		// STEADY: correct stays (and predicts); incorrect falls back to INIT
		// keeping the stride — one misprediction is forgiven.
		{"steady/correct", steady, 64, prev + 64, steady, 64, at(prev + 64 + 4*64)},
		{"steady/incorrect-keeps-stride", steady, 64, prev + 256, initial, 64, none},
		// NO_PRED: correct re-enters through TRANSIENT (no prediction yet);
		// incorrect stays in NO_PRED chasing the latest delta.
		{"nopred/correct-reentry", noPred, 64, prev + 64, transient, 64, none},
		{"nopred/incorrect-stride-change", noPred, 64, prev + 256, noPred, 256, none},
		// Raw comparison: a repeated address is a "correct" zero-delta
		// prediction and reaches STEADY, but a zero stride never predicts.
		{"init/zero-delta-correct-no-issue", initial, 0, prev, steady, 0, none},
		{"steady/zero-delta-correct-no-issue", steady, 0, prev, steady, 0, none},
		// Negative strides confirm and predict exactly like positive ones.
		{"steady/correct-negative", steady, -64, prev - 64, steady, -64, at(prev - 64 - 4*64)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := newStrideTable("baer-chen", true, Config{})
			p.Train(1, prev) // allocates pc 1's entry
			i, hit := p.tags.find(1)
			if !hit {
				t.Fatal("pc 1 has no entry after its first access")
			}
			e := &p.tab[i]
			*e = strideEntry{prev: prev, stride: tc.stride, st: tc.st}
			got := trainAll(p, 1, []uint64{tc.addr})
			checkPredictions(t, got, []prediction{tc.want})
			if e.st != tc.wantSt {
				t.Errorf("state %s, want %s", stateName(e.st), stateName(tc.wantSt))
			}
			if e.stride != tc.wantStride {
				t.Errorf("stride %d, want %d", e.stride, tc.wantStride)
			}
			if e.prev != tc.addr {
				t.Errorf("prev %#x not updated to %#x", e.prev, tc.addr)
			}
			wantIssued := uint64(0)
			if tc.want.ok {
				wantIssued = 1
			}
			if n := p.Counters().Issued; n != wantIssued {
				t.Errorf("Issued = %d, want %d", n, wantIssued)
			}
		})
	}
}

// TestBaerChenObserveSequence walks the automaton through Train from an
// empty table: allocation, one incorrect, then a prediction on every
// further access — the first on the third access of a constant-stride
// stream, exactly like the RPT.
func TestBaerChenObserveSequence(t *testing.T) {
	p := mustScheme(t, "baer-chen", Config{})
	addrs := walk(0x20_000, 64, 10)
	checkPredictions(t, trainAll(p, 7, addrs), strideWant(addrs, 64))
	// Access 1 allocates, access 2 is an INIT miss (stride was 0), accesses
	// 3..10 are correct in TRANSIENT-then-STEADY: 8 predictions.
	if c := p.Counters(); c.Issued != 8 {
		t.Errorf("issued %d over a 10-access stride stream, want 8", c.Issued)
	}
}

// TestBaerChenDownwardWalkIssues mirrors the RPT regression: in-range
// negative-stride predictions must issue, not vanish.
func TestBaerChenDownwardWalkIssues(t *testing.T) {
	p := mustScheme(t, "baer-chen", Config{})
	addrs := walk(0x10_0000, -64, 10)
	checkPredictions(t, trainAll(p, 1, addrs), strideWant(addrs, -64))
	if c := p.Counters(); c.Wrapped != 0 {
		t.Errorf("Wrapped = %d on an in-range downward walk, want 0", c.Wrapped)
	}
}

// TestBaerChenWrapNearZeroCountedNotIssued mirrors the RPT wrap regression
// for the Baer–Chen automaton: walking down at the bottom of the address
// space pushes predictions past zero; they must be counted, never issued.
func TestBaerChenWrapNearZeroCountedNotIssued(t *testing.T) {
	p := mustScheme(t, "baer-chen", Config{})
	got := trainAll(p, 1, walk(0x200, -64, 6))
	checkPredictions(t, got, []prediction{none, none, at(0x80), at(0x40), none, none})
	if c := p.Counters(); c.Issued != 2 || c.Wrapped != 2 {
		t.Errorf("Issued = %d, Wrapped = %d, want 2, 2", c.Issued, c.Wrapped)
	}
}

// TestBaerChenWrapNearTopCountedNotIssued is the mirror boundary: an upward
// walk near the top of the address space wraps past 2^64 and must be
// discarded with the same accounting.
func TestBaerChenWrapNearTopCountedNotIssued(t *testing.T) {
	p := mustScheme(t, "baer-chen", Config{})
	top := ^uint64(0)
	got := trainAll(p, 1, walk(top-0x1ff, 64, 6))
	checkPredictions(t, got, []prediction{none, none, at(top - 0x7f), at(top - 0x3f), none, none})
	if c := p.Counters(); c.Issued != 2 || c.Wrapped != 2 {
		t.Errorf("Issued = %d, Wrapped = %d, want 2, 2", c.Issued, c.Wrapped)
	}
}

// TestBaerChenCapacityEviction pins the Replaced counter under capacity
// pressure — the hardware-table overflow the paper's software approach
// avoids. 16 pcs share a two-set, two-way table: each set fills its ways
// with two pcs and evicts for the other six.
func TestBaerChenCapacityEviction(t *testing.T) {
	p := mustScheme(t, "baer-chen", Config{Entries: 4, Ways: 2})
	for pc := uint64(0); pc < 16; pc++ {
		checkPredictions(t, trainAll(p, pc, []uint64{0x1000 * pc}), []prediction{none})
	}
	if got := p.Counters().Replaced; got != 2*6 {
		t.Errorf("Replaced = %d with 16 pcs in a 4-entry table, want %d", got, 2*6)
	}
}
