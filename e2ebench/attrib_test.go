package main

import (
	"maps"
	"os"
	"strings"
	"testing"
)

// TestAttributionReconciles feeds a canned `go tool pprof -traces -unit=ms`
// listing through the attribution: every block lands in exactly one stage
// and one module, so both breakdowns sum to the total, which matches the
// header's own total.
func TestAttributionReconciles(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b, err := parseTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	wantStage := map[string]int64{
		"profile_run": 1020_000, "instrument": 4_000, "extract": 2_000,
		"measure_run": 4_000, "insert": 2_000, "other": 12_000,
	}
	wantModule := map[string]int64{
		"machine": 1020_000, "compiler": 8_000, "json": 2_000, "cache": 4_000,
		"net": 2_000, "runtime.gc": 6_000, "runtime.other": 2_000,
	}
	if !maps.Equal(b.Stage, wantStage) {
		t.Errorf("stage breakdown = %v, want %v", b.Stage, wantStage)
	}
	if !maps.Equal(b.Module, wantModule) {
		t.Errorf("module breakdown = %v, want %v", b.Module, wantModule)
	}
	if b.Blocks != 9 || b.TotalUS != 1044_000 {
		t.Errorf("blocks = %d total = %dus, want 9 blocks of 1044000us", b.Blocks, b.TotalUS)
	}
	for kind, m := range map[string]map[string]int64{"stage": b.Stage, "module": b.Module} {
		var sum int64
		for _, us := range m {
			sum += us
		}
		if sum != b.TotalUS {
			t.Errorf("%s breakdown sums to %dus, total is %dus", kind, sum, b.TotalUS)
		}
	}
}

// TestAttributionRejectsMismatchedTotal: blocks that do not add up to the
// header total mean the listing was misread.
func TestAttributionRejectsMismatchedTotal(t *testing.T) {
	raw, err := os.ReadFile("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	bad := strings.Replace(string(raw), "Total samples = 1044ms", "Total samples = 1046ms", 1)
	if _, err := parseTraces(strings.NewReader(bad)); err == nil {
		t.Fatal("a listing whose blocks miss the header total was accepted")
	}
}

// TestModuleTable pins the layer names every module-charging rule yields:
// each must be a declared module (or a runtime bucket).
func TestModuleTable(t *testing.T) {
	cases := map[string]string{
		"stridepf/internal/lfu.(*LFU).Touch":            "stride",
		"stridepf/internal/opt.LICM":                    "compiler",
		"stridepf/internal/workloads.(*workload).Setup": "pipeline",
		"main.(*strideMix).request":                     "bench",
		"net/http.(*conn).serve":                        "net",
		"runtime.mallocgc":                              "",
		"sort.Slice":                                    "",
	}
	for fn, want := range cases {
		if got := moduleOf(packageOf(fn)); got != want {
			t.Errorf("module of %s = %q, want %q", fn, got, want)
		}
	}
	declared := map[string]bool{}
	for _, m := range modules {
		declared[m] = true
	}
	for _, m := range modulePkgs {
		if !declared[m] {
			t.Errorf("package table charges to undeclared module %q", m)
		}
	}
	for _, m := range []string{"pipeline", "bench", "json", "net"} {
		if !declared[m] {
			t.Errorf("moduleOf charges to undeclared module %q", m)
		}
	}
	for _, s := range stageFrames {
		if !strings.Contains(strings.Join(stages, " "), s) {
			t.Errorf("stage table charges to undeclared stage %q", s)
		}
	}
}
