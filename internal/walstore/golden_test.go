package walstore_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"stridepf/internal/profile"
	"stridepf/internal/walstore"
)

// goldenDir is a WAL directory committed with the repository: the segment,
// frame, record and snapshot bytes it holds are the on-disk format that
// existing stores were written in. Regenerate it (only for a deliberate
// format change) with UPDATE_GOLDEN=1 go test ./internal/walstore -run Golden.
const goldenDir = "testdata/golden"

// goldenOpts rotates segments every couple of records and snapshots after
// the sixth accepted upload, so the golden run crosses a snapshot, its
// compaction and several later rotations.
func goldenOpts() walstore.Options { return quietOpts(2048, 6) }

var goldenAggregates = [2][2]string{{"197.parser", "golden-a"}, {"181.mcf", "golden-b"}}

// writeGolden runs the golden upload sequence into a fresh store at dir
// and closes it: ten keyed uploads spread over two aggregates, a retry of
// an already committed key after every third one (each must replay), and
// a shard rejected for its fine interval (which must leave no record).
func writeGolden(t *testing.T, dir string) *walstore.Store {
	t.Helper()
	s, err := walstore.Open(dir, goldenOpts())
	if err != nil {
		t.Fatal(err)
	}
	for seq := 1; seq <= 10; seq++ {
		agg := goldenAggregates[seq%2]
		if _, replayed, err := s.Upload(agg[0], agg[1], walShard(seq), fmt.Sprintf("g-%d", seq)); err != nil || replayed {
			t.Fatalf("upload %d: replayed=%v err=%v", seq, replayed, err)
		}
		if seq%3 == 0 {
			prev := goldenAggregates[(seq-1)%2]
			if _, replayed, err := s.Upload(prev[0], prev[1], walShard(seq-1), fmt.Sprintf("g-%d", seq-1)); err != nil || !replayed {
				t.Fatalf("retry of key g-%d: replayed=%v err=%v", seq-1, replayed, err)
			}
		}
		if seq == 7 {
			bad := walShard(seq)
			sums := bad.Stride.Summaries()
			for i := range sums {
				sums[i].FineInterval = 8
			}
			bad.Stride = profile.NewStrideProfile(sums)
			if _, _, err := s.Upload(agg[0], agg[1], bad, "g-bad"); err == nil {
				t.Fatal("fine-interval mismatch accepted")
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return s
}

// readDir returns every file under dir keyed by name.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(des))
	for _, de := range des {
		b, err := os.ReadFile(filepath.Join(dir, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[de.Name()] = b
	}
	return out
}

// TestWALGoldenFiles pins the on-disk format: the golden upload sequence
// must write byte-identical segment and snapshot files, and reopening the
// committed golden directory must restore the state the writer held.
func TestWALGoldenFiles(t *testing.T) {
	dir := t.TempDir()
	written := writeGolden(t, dir)
	got := readDir(t, dir)

	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.RemoveAll(goldenDir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, b := range got {
			if err := os.WriteFile(filepath.Join(goldenDir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := readDir(t, goldenDir)
	if len(globDir(t, goldenDir, "snap-*.snap")) != 1 || len(globDir(t, goldenDir, "wal-*.seg")) < 3 {
		t.Fatalf("golden directory lacks a snapshot or rotated segments: %d files", len(want))
	}
	for name, w := range want {
		if g, ok := got[name]; !ok {
			t.Errorf("%s: not written", name)
		} else if !bytes.Equal(g, w) {
			t.Errorf("%s: %d bytes written, golden has %d (contents differ)", name, len(g), len(w))
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: written but not in the golden directory", name)
		}
	}

	// Reopen a copy: Open repairs and starts a segment, which must not
	// touch the committed files.
	replayDir := t.TempDir()
	for name, b := range want {
		if err := os.WriteFile(filepath.Join(replayDir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := walstore.Open(replayDir, goldenOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.LastSeq() != written.LastSeq() {
		t.Errorf("golden LastSeq = %d, writer ended at %d", s.LastSeq(), written.LastSeq())
	}
	if !reflect.DeepEqual(s.List(), written.List()) {
		t.Errorf("golden List = %+v, writer has %+v", s.List(), written.List())
	}
	for _, agg := range goldenAggregates {
		g, _, err := s.Get(agg[0], agg[1])
		if err != nil {
			t.Fatal(err)
		}
		w, _, err := written.Get(agg[0], agg[1])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encodeP(t, g), encodeP(t, w)) {
			t.Errorf("%s/%s: golden aggregate differs from the writer's", agg[0], agg[1])
		}
	}
}
