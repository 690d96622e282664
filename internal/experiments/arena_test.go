package experiments

import (
	"os"
	"strings"
	"testing"

	"stridepf/internal/hwpf"
	"stridepf/internal/machine"
)

// TestArenaGolden locks the arena figure's bytes for the default-config
// session on the fast roster. The golden file is the committed output of
//
//	go run ./cmd/experiments -figure arena -workloads 197.parser
//
// so any change to the default RPT path, the competitor schemes, the cache
// configs or the table renderer that moves these rows must be deliberate
// enough to regenerate it.
func TestArenaGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment session in -short mode")
	}
	s := NewSession(Config{Workloads: []string{"197.parser"}})
	got, err := s.FigureText(ctx, "arena", false)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/arena_197.parser.golden")
	if err != nil {
		t.Fatalf("missing golden (regenerate with `go run ./cmd/experiments -figure arena -workloads 197.parser`): %v", err)
	}
	if got != string(want) {
		t.Errorf("arena figure diverges from golden\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// Structure: every cache config × scheme row is present, in order.
	var wantRows []string
	for _, h := range ArenaHierarchies() {
		for _, scheme := range hwpf.Schemes() {
			wantRows = append(wantRows, "197.parser|"+h.Name+"|"+scheme)
		}
	}
	idx := 0
	for _, row := range wantRows {
		at := strings.Index(got[idx:], row)
		if at < 0 {
			t.Fatalf("arena output missing row %q (or out of order):\n%s", row, got)
		}
		idx += at
	}
}

// TestArenaParallelMatchesSerial pins the memoisation contract for the new
// figure: precomputing the arena cells on a worker pool must leave the
// assembled table byte-identical to a serial session.
func TestArenaParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment session in -short mode")
	}
	cfg := Config{Workloads: []string{"197.parser"}}

	warm := NewSession(cfg)
	warm.Warm(ctx, 4, "arena")
	parallel, err := warm.FigureText(ctx, "arena", false)
	if err != nil {
		t.Fatal(err)
	}

	serialCfg := cfg
	serialCfg.Jobs = 1
	serial, err := NewSession(serialCfg).FigureText(ctx, "arena", false)
	if err != nil {
		t.Fatal(err)
	}
	if parallel != serial {
		t.Errorf("warmed arena diverges from serial\n--- warmed ---\n%s\n--- serial ---\n%s", parallel, serial)
	}
}

// TestFig16ByteIdenticalUnderDisabledHWPF is the figure-level statement of
// the hwpfneutral property: a session that attaches a silenced prefetcher
// (trained on every load, its predictions discarded) to every machine must
// reproduce the paper figure byte for byte, cycles included.
func TestFig16ByteIdenticalUnderDisabledHWPF(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment session in -short mode")
	}
	roster := []string{"197.parser"}
	want, err := NewSession(Config{Workloads: roster}).FigureText(ctx, "16", false)
	if err != nil {
		t.Fatal(err)
	}
	silencedBaerChen := func() machine.HWPrefetcher {
		p, _ := hwpf.NewScheme("baer-chen", hwpf.Config{})
		return silenced{p}
	}
	got, err := NewSession(Config{
		Workloads: roster,
		Machine:   machine.Config{NewHWPrefetch: silencedBaerChen},
	}).FigureText(ctx, "16", false)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("disabled prefetcher changed Figure 16\n--- with ---\n%s\n--- without ---\n%s", got, want)
	}
}

// silenced trains a prefetcher but discards every prediction it makes.
type silenced struct{ hwpf.Prefetcher }

func (s silenced) Train(pc, addr uint64) (uint64, bool) {
	s.Prefetcher.Train(pc, addr)
	return 0, false
}

// TestArenaUnknownSchemeFails pins the session-level validation: a bad
// Config.HWPF surfaces as an error from every figure, naming the scheme.
func TestArenaUnknownSchemeFails(t *testing.T) {
	s := NewSession(Config{Workloads: []string{"197.parser"}, HWPF: "nextline"})
	_, err := s.FigureText(ctx, "16", false)
	if err == nil || !strings.Contains(err.Error(), "nextline") {
		t.Errorf("unknown scheme error = %v, want mention of %q", err, "nextline")
	}
}

// TestArenaCellValidatesInputs pins the cell-level argument checks.
func TestArenaCellValidatesInputs(t *testing.T) {
	s := NewSession(Config{Workloads: []string{"197.parser"}})
	if _, err := s.ArenaCell(ctx, "197.parser", "base", "nextline"); err == nil {
		t.Error("unknown scheme accepted")
	}
	if _, err := s.ArenaCell(ctx, "197.parser", "huge", "rpt"); err == nil {
		t.Error("unknown cache config accepted")
	}
}

// TestArenaIsExtraFigure pins the frozen paper-figure list: the repo's own
// figures are reachable by name but must never join FigureNames (RunAll and
// `-figure all` stay byte-identical to the paper harness).
func TestArenaIsExtraFigure(t *testing.T) {
	extras := ExtraFigureNames()
	for _, name := range FigureNames() {
		for _, extra := range extras {
			if name == extra {
				t.Fatalf("%s leaked into FigureNames", extra)
			}
		}
	}
	want := []string{"arena", "paths"}
	if len(extras) != len(want) {
		t.Fatalf("ExtraFigureNames() = %v, want %v", extras, want)
	}
	for i, extra := range extras {
		if extra != want[i] {
			t.Errorf("ExtraFigureNames()[%d] = %q, want %q", i, extra, want[i])
		}
	}
}
