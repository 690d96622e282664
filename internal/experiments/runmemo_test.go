package experiments

import (
	"bufio"
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"stridepf/internal/core"
	"stridepf/internal/ir"
	"stridepf/internal/obs"
	"stridepf/internal/prefetch"
)

// trainLabels are the memo labels under which Figure 16 and the train
// columns of Figures 23-25 measure the binary built from the
// sample-edge-check train profile.
func trainLabels() []string {
	labels := []string{sampleEdgeCheck().Name + "-train"}
	for _, spec := range sensitivitySpecs() {
		labels = append(labels, spec.title+spec.cols[0])
	}
	return labels
}

// speedupKey is the cell key Speedup registers reports and stamps traces
// under.
func speedupKey(wname, label string, in core.Input) string {
	return "speedup|" + wname + "|" + label + "|" + in.Name
}

// measureTrainLabels runs the clean binary of wname, then measures its
// sample-edge-check train binary under every train label concurrently. It
// returns the speedups and how many simulations they cost beyond the clean
// run.
func measureTrainLabels(t *testing.T, s *Session, wname string) ([]float64, int64) {
	t.Helper()
	w, err := s.workload(wname)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Clean(ctx, wname, w.Ref()); err != nil {
		t.Fatal(err)
	}
	pr, err := s.Profile(ctx, wname, sampleEdgeCheck(), w.Train())
	if err != nil {
		t.Fatal(err)
	}
	before := s.measureRuns.Load()
	labels := trainLabels()
	sps := make([]float64, len(labels))
	errs := make([]error, len(labels))
	var wg sync.WaitGroup
	for i, label := range labels {
		wg.Add(1)
		go func(i int, label string) {
			defer wg.Done()
			sps[i], errs[i] = s.Speedup(ctx, wname, label, pr.Profiles, w.Ref())
		}(i, label)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", labels[i], err)
		}
	}
	return sps, s.measureRuns.Load() - before
}

// runMemoSession returns a 197.parser session. The tests that share one
// run between concurrent labels stay on in -short mode, so the race gate
// covers the run memo; one parser run takes about 0.1 s.
func runMemoSession(cfg Config) *Session {
	cfg.Workloads = []string{"197.parser"}
	return NewSession(cfg)
}

// TestTrainBinaryMeasuredOnce: Figure 16's sample-edge-check-train column
// and the train columns of Figures 23-25 build the same binary, so the
// session simulates it once.
func TestTrainBinaryMeasuredOnce(t *testing.T) {
	s := runMemoSession(Config{})
	sps, runs := measureTrainLabels(t, s, "197.parser")
	if runs != 1 {
		t.Errorf("%d labels of one binary cost %d simulations, want 1", len(sps), runs)
	}
	if sps[0] == 1 {
		t.Fatalf("speedup = 1: the train binary no longer differs from the clean program")
	}
	for i, sp := range sps[1:] {
		if sp != sps[0] {
			t.Errorf("%s speedup %v, want %v", trainLabels()[i+1], sp, sps[0])
		}
	}
}

// TestSpeedupReusesEqualCleanRun: when the feedback pass inserts nothing,
// the prefetched binary equals the clean program, and an unobserved
// session answers it from the clean run.
func TestSpeedupReusesEqualCleanRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment session in -short mode")
	}
	const name = "252.eon"
	s := NewSession(Config{Workloads: []string{name}})
	w, err := s.workload(name)
	if err != nil {
		t.Fatal(err)
	}
	m := sampleEdgeCheck()
	pr, err := s.Profile(ctx, name, m, w.Train())
	if err != nil {
		t.Fatal(err)
	}
	fb, err := prefetch.Apply(w.Program(), pr.Profiles, s.cfg.Prefetch)
	if err != nil {
		t.Fatal(err)
	}
	if ir.Fingerprint(fb.Prog) != ir.Fingerprint(w.Program()) {
		t.Fatalf("%s: the %s binary no longer equals the clean program; pick a workload whose feedback pass inserts nothing", name, m.Name)
	}
	if _, err := s.Clean(ctx, name, w.Ref()); err != nil {
		t.Fatal(err)
	}
	sp, err := s.Speedup(ctx, name, m.Name+"-train", pr.Profiles, w.Ref())
	if err != nil {
		t.Fatal(err)
	}
	if runs := s.measureRuns.Load(); runs != 1 {
		t.Errorf("clean run plus an identical prefetched binary cost %d simulations, want 1", runs)
	}
	if sp != 1 {
		t.Errorf("speedup of a binary equal to the clean program = %v, want 1", sp)
	}
}

// TestMetricsReportsShareOneRun: a metrics-only session still registers
// one report per label, all from the one simulation of their shared
// binary.
func TestMetricsReportsShareOneRun(t *testing.T) {
	reg := obs.NewRegistry()
	s := runMemoSession(Config{Metrics: reg})
	_, runs := measureTrainLabels(t, s, "197.parser")
	if runs != 1 {
		t.Errorf("metrics session: %d simulations, want 1", runs)
	}
	w, _ := s.workload("197.parser")
	byRun := map[string]obs.Report{}
	for _, r := range reg.Reports() {
		byRun[r.Run] = r
	}
	if len(byRun) != len(trainLabels()) {
		t.Fatalf("%d reports registered, want one per label (%d)", len(byRun), len(trainLabels()))
	}
	var first *obs.Report
	for _, label := range trainLabels() {
		r, ok := byRun[speedupKey("197.parser", label, w.Ref())]
		if !ok {
			t.Fatalf("no report for %q", label)
		}
		if r.Label != label+"|"+w.Ref().Name {
			t.Errorf("report label %q, want %q", r.Label, label+"|"+w.Ref().Name)
		}
		if first == nil {
			first = &r
			if r.Totals.Issued == 0 {
				t.Fatal("report counts no issued prefetches")
			}
			continue
		}
		if !reflect.DeepEqual(r.Classes, first.Classes) || r.Totals != first.Totals ||
			!reflect.DeepEqual(r.Levels, first.Levels) || r.UncoveredMisses != first.UncoveredMisses {
			t.Errorf("report %q differs from %q", r.Run, first.Run)
		}
	}
}

// TestTraceRunsPerLabel: trace events carry their cell's key, so a traced
// session keeps one simulation per label.
func TestTraceRunsPerLabel(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment session in -short mode")
	}
	var buf bytes.Buffer
	tr := obs.NewTrace(&buf, obs.TraceConfig{SampleEvery: 64})
	s := runMemoSession(Config{Trace: tr})
	_, runs := measureTrainLabels(t, s, "197.parser")
	if want := int64(len(trainLabels())); runs != want {
		t.Errorf("traced session: %d simulations, want %d (one per label)", runs, want)
	}
	seen := map[string]bool{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var ev obs.TraceEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		seen[ev.Run] = true
	}
	w, _ := s.workload("197.parser")
	for _, label := range trainLabels() {
		if key := speedupKey("197.parser", label, w.Ref()); !seen[key] {
			t.Errorf("no trace events stamped %q", key)
		}
	}
}
