package hwpf

import (
	"reflect"
	"strings"
	"testing"

	"stridepf/internal/machine"
)

// TestSchemesRegistry pins the registry surface the arena, the CLI flags
// and the simcheck property all enumerate: sorted, complete, and with the
// default scheme present.
func TestSchemesRegistry(t *testing.T) {
	want := []string{"baer-chen", "multi-stride", "rpt", "tracker"}
	if got := Schemes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Schemes() = %v, want %v", got, want)
	}
	found := false
	for _, s := range Schemes() {
		found = found || s == DefaultScheme
	}
	if !found {
		t.Errorf("DefaultScheme %q is not registered", DefaultScheme)
	}
}

// TestNewSchemeRoundTrip checks every registered constructor yields a fresh
// prefetcher whose Name matches its registry key and which satisfies the
// machine attachment point.
func TestNewSchemeRoundTrip(t *testing.T) {
	for _, name := range Schemes() {
		p, err := NewScheme(name, Config{})
		if err != nil {
			t.Fatalf("NewScheme(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("NewScheme(%q).Name() = %q", name, p.Name())
		}
		var hw machine.HWPrefetcher = p // every scheme must attach to a machine
		_ = hw
		if c := p.Counters(); c != (Counters{}) {
			t.Errorf("fresh %q has non-zero counters %+v", name, c)
		}
	}
}

// TestNewSchemeUnknown checks the error names the valid set, since it
// surfaces directly through the -hwpf CLI flags.
func TestNewSchemeUnknown(t *testing.T) {
	_, err := NewScheme("nextline", Config{})
	if err == nil {
		t.Fatal("NewScheme accepted an unknown scheme")
	}
	for _, name := range Schemes() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list valid scheme %q", err, name)
		}
	}
}

// TestPredictTargetBoundaries pins the shared wrap detector at the exact
// edges every scheme funnels through.
func TestPredictTargetBoundaries(t *testing.T) {
	cases := []struct {
		addr   uint64
		delta  int64
		wantOK bool
	}{
		{0x1000, 64, true},
		{0x1000, -64, true},
		{0x100, -0x100, false},       // lands exactly on 0
		{0x100, -0x101, false},       // crosses 0
		{0x100, -0xff, true},         // stops at 1
		{^uint64(0) - 63, 64, false}, // crosses the top
		{^uint64(0) - 64, 64, true},  // lands on the last byte
		{0, 64, true},
	}
	for _, tc := range cases {
		got, ok := predictTarget(tc.addr, tc.delta)
		if ok != tc.wantOK {
			t.Errorf("predictTarget(%#x, %d) ok = %v, want %v", tc.addr, tc.delta, ok, tc.wantOK)
		}
		if ok && got != tc.addr+uint64(tc.delta) {
			t.Errorf("predictTarget(%#x, %d) = %#x", tc.addr, tc.delta, got)
		}
	}
}

// trainSink keeps BenchmarkTrain's predictions live.
var trainSink uint64

// BenchmarkTrain times Train per scheme over a fixed stream of 48 pcs,
// interleaved round-robin: line strides, a +64/+192 period-2 sequence,
// 8-byte sub-line strides and random addresses, a quarter each. The pcs
// are random 64-bit values like the machine's hashed load pcs, so some of
// the default table's sets overflow and both tables and the tracker deque
// replace entries.
func BenchmarkTrain(b *testing.B) {
	const pcs, rounds = 48, 64
	rng := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	var pc, addr [pcs]uint64
	for i := range pc {
		pc[i] = next()
		addr[i] = 0x1000_0000 + uint64(i)<<20
	}
	type access struct{ pc, addr uint64 }
	stream := make([]access, 0, pcs*rounds)
	for r := 0; r < rounds; r++ {
		for i := range pc {
			switch i % 4 {
			case 0:
				addr[i] += 64
			case 1:
				addr[i] += 64 + 128*uint64(r%2)
			case 2:
				addr[i] += 8
			case 3:
				addr[i] = 0x1000_0000 + next()%(1<<30)
			}
			stream = append(stream, access{pc[i], addr[i]})
		}
	}
	for _, scheme := range Schemes() {
		b.Run(scheme, func(b *testing.B) {
			p, err := NewScheme(scheme, Config{})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				for _, a := range stream {
					t, _ := p.Train(a.pc, a.addr)
					trainSink += t
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(stream)), "ns/train")
			if p.Counters().Replaced == 0 {
				b.Errorf("%s replaced no entry; the stream does not pressure its table", scheme)
			}
		})
	}
}
