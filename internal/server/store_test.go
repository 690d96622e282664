package server

import (
	"bytes"
	"fmt"
	"testing"

	"stridepf/internal/lfu"
	"stridepf/internal/machine"
	"stridepf/internal/profile"
	"stridepf/internal/stride"
)

func storeShard(freq int64) *profile.Combined {
	ep := profile.NewEdgeProfile()
	ep.Set(profile.EdgeKey{Func: "main", From: 0, To: 1}, uint64(freq))
	ep.SetEntryCount("main", 1)
	return &profile.Combined{
		Edge: ep,
		Stride: profile.NewStrideProfile([]stride.Summary{{
			Key: machine.LoadKey{Func: "main", ID: 1}, TotalStrides: freq,
			FineInterval: 1,
			TopStrides:   []lfu.Entry{{Value: 8, Freq: freq}},
		}}),
	}
}

func encodeStoreProfile(t *testing.T, p *profile.Combined) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := profile.DefaultCodec.Encode(&buf, p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStoreGetAliasing is the regression test for Get handing out the live
// aggregate pointer: a caller mutating the returned profile (or a future
// in-place merge pass) must not corrupt the aggregate behind the lock.
func TestStoreGetAliasing(t *testing.T) {
	s := NewStore()
	if _, _, err := s.Upload("197.parser", "cfg", storeShard(10), ""); err != nil {
		t.Fatal(err)
	}
	got, _, err := s.Get("197.parser", "cfg")
	if err != nil {
		t.Fatal(err)
	}
	want := encodeStoreProfile(t, got)

	// Mutate everything reachable from the returned aggregate.
	got.Edge.Set(profile.EdgeKey{Func: "evil", From: 9, To: 9}, 999)
	got.Edge.SetEntryCount("evil", 123)
	for _, sum := range got.Stride.Summaries() {
		sum.TopStrides[0].Freq = -1
		sum.TopStrides[0].Value = -1
	}
	got.Interval = 77

	again, _, err := s.Get("197.parser", "cfg")
	if err != nil {
		t.Fatal(err)
	}
	if gotBytes := encodeStoreProfile(t, again); !bytes.Equal(gotBytes, want) {
		t.Errorf("mutating a Get result corrupted the stored aggregate:\nbefore:\n%s\nafter:\n%s",
			want, gotBytes)
	}

	// Two Gets must not alias each other either.
	a, _, _ := s.Get("197.parser", "cfg")
	b, _, _ := s.Get("197.parser", "cfg")
	for _, sum := range a.Stride.Summaries() {
		sum.TopStrides[0].Freq = 42424242
	}
	if gotBytes := encodeStoreProfile(t, b); !bytes.Equal(gotBytes, want) {
		t.Error("two Get results share TopStrides backing arrays")
	}
}

// TestStoreIdempotencyBound pins the size of the per-aggregate
// idempotency table: after 4097 keyed uploads the oldest key (0) has been
// evicted and merges again, while the next oldest (1) still replays.
func TestStoreIdempotencyBound(t *testing.T) {
	s := NewStore()
	const keys = 4097
	for i := 0; i < keys; i++ {
		if _, replayed, err := s.Upload("197.parser", "idem", storeShard(1), fmt.Sprintf("key-%d", i)); err != nil || replayed {
			t.Fatalf("upload %d: replayed=%v err=%v", i, replayed, err)
		}
	}
	info, replayed, err := s.Upload("197.parser", "idem", storeShard(1), "key-1")
	if err != nil || !replayed || info.Shards != 2 {
		t.Fatalf("key-1: replayed=%v shards=%d err=%v, want a replay of its commit (2 shards)", replayed, info.Shards, err)
	}
	info, replayed, err = s.Upload("197.parser", "idem", storeShard(1), "key-0")
	if err != nil || replayed || info.Shards != keys+1 {
		t.Fatalf("key-0: replayed=%v shards=%d err=%v, want a fresh merge (%d shards)", replayed, info.Shards, err, keys+1)
	}
}
