package walstore_test

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"path/filepath"
	"sort"
	"testing"

	"stridepf/internal/lfu"
	"stridepf/internal/machine"
	"stridepf/internal/profile"
	"stridepf/internal/stride"
	"stridepf/internal/walstore"
)

const (
	testWorkload = "197.parser"
	testConfig   = "wal"
)

// quietOpts returns test options with a silent log and the given tuning.
func quietOpts(segBytes int64, snapEvery int) walstore.Options {
	return walstore.Options{
		SegmentBytes:  segBytes,
		SnapshotEvery: snapEvery,
		Log:           log.New(io.Discard, "", 0),
	}
}

// walShard builds the deterministic shard committed as WAL record seq. The
// shards stay in profile.Merge's exact regime — a shared stride pool well
// under the truncation bound, zero reference distances, one fine interval —
// so "replay the committed prefix" and "offline profmerge of the committed
// prefix" are byte-comparable regardless of how the prefix was reassembled.
func walShard(seq int) *profile.Combined {
	ep := profile.NewEdgeProfile()
	for b := 0; b < 3; b++ {
		ep.Set(profile.EdgeKey{Func: "f", From: b, To: b + 1}, uint64(1+seq*5+b))
	}
	ep.SetEntryCount("f", uint64(1+seq%4))
	pool := []int64{8, 16, 64, 256}
	var sums []stride.Summary
	for id := 1; id <= 2; id++ {
		v := pool[(seq+id)%len(pool)]
		w := pool[(seq+3*id)%len(pool)]
		tops := []lfu.Entry{{Value: v, Freq: int64(7 + seq%9)}}
		if w != v {
			tops = append(tops, lfu.Entry{Value: w, Freq: int64(2 + id)})
		}
		sums = append(sums, stride.Summary{
			Key:          machine.LoadKey{Func: "f", ID: id},
			TopStrides:   tops,
			TotalStrides: int64(15 + seq + id),
			ZeroStrides:  int64(seq % 3),
			ZeroDiffs:    int64(1 + seq%2),
			FineInterval: 4,
		})
	}
	return &profile.Combined{Edge: ep, Stride: profile.NewStrideProfile(sums)}
}

// offlineMerge is the fault-free profmerge reference over record seqs
// 1..n (nil when n == 0).
func offlineMerge(t *testing.T, n int) *profile.Combined {
	t.Helper()
	if n == 0 {
		return nil
	}
	shards := make([]*profile.Combined, n)
	for i := range shards {
		shards[i] = walShard(i + 1)
	}
	merged, err := profile.Merge(shards...)
	if err != nil {
		t.Fatal(err)
	}
	return merged
}

func encodeP(t *testing.T, p *profile.Combined) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := profile.DefaultCodec.Encode(&buf, p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkRecovered asserts the store holds exactly the offline merge of the
// first s.LastSeq() shards — the recovery oracle.
func checkRecovered(t *testing.T, s *walstore.Store) {
	t.Helper()
	n := int(s.LastSeq())
	if n == 0 {
		if _, _, err := s.Get(testWorkload, testConfig); err == nil {
			t.Fatal("empty store has an aggregate")
		}
		return
	}
	got, info, err := s.Get(testWorkload, testConfig)
	if err != nil {
		t.Fatalf("Get after recovery to seq %d: %v", n, err)
	}
	if info.Shards != n || info.Version != n {
		t.Fatalf("recovered shards=%d version=%d, want both %d", info.Shards, info.Version, n)
	}
	want := encodeP(t, offlineMerge(t, n))
	if gotB := encodeP(t, got); !bytes.Equal(gotB, want) {
		t.Fatalf("recovered aggregate diverges from offline profmerge of %d shards (%d vs %d bytes)",
			n, len(gotB), len(want))
	}
}

// upload pushes record seqs [from, to] into s with per-seq idempotency keys.
func upload(t *testing.T, s *walstore.Store, from, to int) {
	t.Helper()
	for seq := from; seq <= to; seq++ {
		if _, replayed, err := s.Upload(testWorkload, testConfig, walShard(seq), fmt.Sprintf("wal-%d", seq)); err != nil {
			t.Fatalf("upload seq %d: %v", seq, err)
		} else if replayed {
			t.Fatalf("upload seq %d unexpectedly replayed", seq)
		}
	}
}

func globDir(t *testing.T, dir, pattern string) []string {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(m)
	return m
}

func TestUploadGetListSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := walstore.Open(dir, quietOpts(1<<20, -1))
	if err != nil {
		t.Fatal(err)
	}
	upload(t, s, 1, 10)
	checkRecovered(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := walstore.Open(dir, quietOpts(1<<20, -1))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.LastSeq(); got != 10 {
		t.Fatalf("LastSeq after reopen = %d, want 10", got)
	}
	checkRecovered(t, s2)

	list := s2.List()
	if len(list) != 1 || list[0].Workload != testWorkload || list[0].Config != testConfig {
		t.Fatalf("List after reopen = %+v", list)
	}

	// The idempotency table must survive the restart: retrying a key that
	// committed before the crash replays the recorded result instead of
	// double-merging the shard.
	info, replayed, err := s2.Upload(testWorkload, testConfig, walShard(7), "wal-7")
	if err != nil || !replayed {
		t.Fatalf("retried committed key: replayed=%v err=%v", replayed, err)
	}
	if info.Shards != 7 {
		t.Fatalf("replayed info.Shards = %d, want the value recorded at commit (7)", info.Shards)
	}
	if s2.LastSeq() != 10 {
		t.Fatalf("idempotent replay advanced the WAL to seq %d", s2.LastSeq())
	}
}

func TestSnapshotCompactsSegments(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation; SnapshotEvery 4 forces several
	// snapshot+compact cycles over 14 uploads.
	s, err := walstore.Open(dir, quietOpts(256, 4))
	if err != nil {
		t.Fatal(err)
	}
	upload(t, s, 1, 14)
	checkRecovered(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	if snaps := globDir(t, dir, "snap-*.snap"); len(snaps) != 1 {
		t.Fatalf("compaction left %d snapshots, want exactly 1: %v", len(snaps), snaps)
	}
	// Only segments after the last snapshot (seq 12) may remain: the
	// post-snapshot segments for records 13-14 plus the empty active one.
	// Anything starting at or before seq 12 should have been compacted.
	segs := globDir(t, dir, "wal-*.seg")
	if floor := filepath.Join(dir, "wal-000000000000000d.seg"); len(segs) == 0 || segs[0] < floor {
		t.Fatalf("compaction left pre-snapshot segments: %v", segs)
	}

	s2, err := walstore.Open(dir, quietOpts(256, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.LastSeq(); got != 14 {
		t.Fatalf("LastSeq after snapshot+tail replay = %d, want 14", got)
	}
	checkRecovered(t, s2)
}

func TestExplicitSnapshotAndEmptyReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := walstore.Open(dir, quietOpts(1<<20, -1))
	if err != nil {
		t.Fatal(err)
	}
	upload(t, s, 1, 5)
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery from snapshot alone (the tail segment is empty).
	s2, err := walstore.Open(dir, quietOpts(1<<20, -1))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.LastSeq(); got != 5 {
		t.Fatalf("LastSeq from snapshot = %d, want 5", got)
	}
	checkRecovered(t, s2)
}

func TestGetReturnsDeepCopy(t *testing.T) {
	s, err := walstore.Open(t.TempDir(), quietOpts(1<<20, -1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	upload(t, s, 1, 3)
	first, _, err := s.Get(testWorkload, testConfig)
	if err != nil {
		t.Fatal(err)
	}
	want := encodeP(t, first)
	first.Edge.Set(profile.EdgeKey{Func: "evil", From: 9, To: 10}, 1)
	first.Interval = 999
	again, _, err := s.Get(testWorkload, testConfig)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeP(t, again), want) {
		t.Fatal("mutating a Get result changed the stored aggregate")
	}
}

func TestRejectedUploadLeavesNoTrace(t *testing.T) {
	dir := t.TempDir()
	s, err := walstore.Open(dir, quietOpts(1<<20, -1))
	if err != nil {
		t.Fatal(err)
	}
	upload(t, s, 1, 2)

	// A shard sampled at a different fine interval must be rejected before
	// it reaches the log.
	bad := walShard(3)
	sums := bad.Stride.Summaries()
	for i := range sums {
		sums[i].FineInterval = 8
	}
	bad.Stride = profile.NewStrideProfile(sums)
	if _, _, err := s.Upload(testWorkload, testConfig, bad, "bad-1"); err == nil {
		t.Fatal("fine-interval mismatch accepted")
	}
	if got := s.LastSeq(); got != 2 {
		t.Fatalf("rejected upload advanced the WAL to seq %d", got)
	}
	// Nor may the failed attempt's key be considered committed.
	if _, replayed, _ := s.Upload(testWorkload, testConfig, bad, "bad-1"); replayed {
		t.Fatal("failed upload's idempotency key was recorded as committed")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := walstore.Open(dir, quietOpts(1<<20, -1))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.LastSeq(); got != 2 {
		t.Fatalf("replay found %d records, want 2: a rejected upload reached the log", got)
	}
	checkRecovered(t, s2)
}

func TestClosedStoreRejectsWrites(t *testing.T) {
	s, err := walstore.Open(t.TempDir(), quietOpts(1<<20, -1))
	if err != nil {
		t.Fatal(err)
	}
	upload(t, s, 1, 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Upload(testWorkload, testConfig, walShard(2), ""); err == nil {
		t.Fatal("upload after Close succeeded")
	}
	if err := s.Snapshot(); err == nil {
		t.Fatal("snapshot after Close succeeded")
	}
	// Reads keep working from memory.
	if _, _, err := s.Get(testWorkload, testConfig); err != nil {
		t.Fatalf("read after Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

func TestMultipleAggregates(t *testing.T) {
	dir := t.TempDir()
	s, err := walstore.Open(dir, quietOpts(1<<20, 3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		if _, _, err := s.Upload("wlA", "cfg", walShard(i), ""); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Upload("wlB", "cfg", walShard(i*2), ""); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := walstore.Open(dir, quietOpts(1<<20, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	list := s2.List()
	if len(list) != 2 || list[0].Workload != "wlA" || list[1].Workload != "wlB" {
		t.Fatalf("List = %+v", list)
	}
	for _, info := range list {
		if info.Shards != 4 {
			t.Fatalf("%s: shards = %d, want 4", info.Workload, info.Shards)
		}
	}
	a, _, err := s2.Get("wlA", "cfg")
	if err != nil {
		t.Fatal(err)
	}
	want, err := profile.Merge(walShard(1), walShard(2), walShard(3), walShard(4))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeP(t, a), encodeP(t, want)) {
		t.Fatal("wlA aggregate diverges from offline merge after interleaved replay")
	}
}

// TestIdempotencyBoundSurvivesReopen: the idempotency table keeps the
// newest 4096 keys per aggregate, and a reopen restores exactly that
// window — here from a snapshot taken after 3000 uploads plus the WAL tail
// that evicts key 0 during replay.
func TestIdempotencyBoundSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := walstore.Open(dir, quietOpts(1<<20, 3000))
	if err != nil {
		t.Fatal(err)
	}
	const keys = 4097
	for i := 0; i < keys; i++ {
		if _, replayed, err := s.Upload(testWorkload, testConfig, walShard(1), fmt.Sprintf("key-%d", i)); err != nil || replayed {
			t.Fatalf("upload %d: replayed=%v err=%v", i, replayed, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if snaps := globDir(t, dir, "snap-*.snap"); len(snaps) != 1 {
		t.Fatalf("want one snapshot before the WAL tail, have %v", snaps)
	}

	s2, err := walstore.Open(dir, quietOpts(1<<20, 3000))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	info, replayed, err := s2.Upload(testWorkload, testConfig, walShard(1), "key-1")
	if err != nil || !replayed || info.Shards != 2 {
		t.Fatalf("key-1: replayed=%v shards=%d err=%v, want a replay of its commit (2 shards)", replayed, info.Shards, err)
	}
	info, replayed, err = s2.Upload(testWorkload, testConfig, walShard(1), "key-0")
	if err != nil || replayed || info.Shards != keys+1 {
		t.Fatalf("key-0: replayed=%v shards=%d err=%v, want a fresh merge (%d shards)", replayed, info.Shards, err, keys+1)
	}
	if s2.LastSeq() != keys+1 {
		t.Fatalf("LastSeq = %d, want %d", s2.LastSeq(), keys+1)
	}
}
