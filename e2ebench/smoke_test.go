package main

import (
	"context"
	"path/filepath"
	"sync/atomic"
	"testing"
)

// smokeSeed keeps drift-kernel names unique when the test runs more than
// once in a process (the workload registry refuses duplicates).
var smokeSeed atomic.Uint64

// TestSmokeStridedMix runs a short traced strided-mix repetition against a
// two-workload pool through every oracle: aggregate bytes against the
// offline merge, exactly-once epochs, and plan replay.
func TestSmokeStridedMix(t *testing.T) {
	m, err := newStrideMix(t.TempDir(), 0xE2E0+smokeSeed.Add(1), []string{"181.mcf", "197.parser"}, 100)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	res, err := m.rep(context.Background(), 0, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("%d of %d operations failed: %v", res.Failed, res.Attempted, res.Failures)
	}
	if res.Attempted != 100+3 {
		t.Errorf("attempted = %d, want 100 requests + 3 oracles", res.Attempted)
	}
	for name, want := range map[string]int{"ingest_ms": 75, "read_ms": 25, "server.ingest_ms": 75} {
		if got := len(res.Samples[name]); got != want {
			t.Errorf("%d %s samples, want %d", got, name, want)
		}
	}
	if len(res.Samples["plan_lag_ms"]) == 0 || res.Values["plan.deltas"] == 0 {
		t.Errorf("no plan deltas measured (%v deltas)", res.Values["plan.deltas"])
	}
	if res.Values["ingest_shards_per_s"] <= 0 || tr.count() == 0 {
		t.Errorf("throughput %v, %d spans", res.Values["ingest_shards_per_s"], tr.count())
	}
}

// TestSmokeArena runs the hwpf-arena repetition on one workload against the
// experiments package's own golden.
func TestSmokeArena(t *testing.T) {
	j, err := newHWPFArena("..", []string{"197.parser"},
		filepath.Join("internal", "experiments", "testdata", "arena_197.parser.golden"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := j.rep(context.Background(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("oracle failed: %v", res.Failures)
	}
	for _, s := range arenaSchemes {
		if res.Counts["hwpf."+s+".issued"] == 0 {
			t.Errorf("scheme %s issued nothing", s)
		}
	}
}
