package workloads

import (
	"testing"

	"stridepf/internal/core"
	"stridepf/internal/instrument"
	"stridepf/internal/ir"
	"stridepf/internal/machine"
	"stridepf/internal/prefetch"
	"stridepf/internal/profile"
)

func TestRegistryComplete(t *testing.T) {
	names := Names()
	want := []string{
		"164.gzip", "175.vpr", "176.gcc", "181.mcf", "186.crafty",
		"197.parser", "252.eon", "253.perlbmk", "254.gap", "255.vortex",
		"256.bzip2", "300.twolf",
	}
	if len(names) != len(want) {
		t.Fatalf("registered %d workloads, want %d: %v", len(names), len(want), names)
	}
	for i, n := range want {
		if names[i] != n {
			t.Errorf("names[%d] = %s, want %s", i, names[i], n)
		}
	}
	if Get("181.mcf") == nil {
		t.Error("Get(181.mcf) = nil")
	}
	if Get("999.nope") != nil {
		t.Error("Get of unknown workload should be nil")
	}
}

func TestProgramsVerifyAndAreCached(t *testing.T) {
	for _, w := range All() {
		p1 := w.Program()
		if err := ir.VerifyProgram(p1); err != nil {
			t.Errorf("%s: %v", w.Name(), err)
		}
		if p2 := w.Program(); p2 != p1 {
			t.Errorf("%s: Program() not cached", w.Name())
		}
		if w.Description() == "" {
			t.Errorf("%s: missing description", w.Name())
		}
	}
}

func TestAllWorkloadsRunDeterministically(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload runs in -short mode")
	}
	for _, w := range All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			t.Parallel()
			in := w.Train()
			r1, err := core.Execute(w.Program(), w, in, machine.Config{})
			if err != nil {
				t.Fatal(err)
			}
			r2, err := core.Execute(w.Program(), w, in, machine.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if r1.Ret != r2.Ret {
				t.Errorf("nondeterministic checksum: %d vs %d", r1.Ret, r2.Ret)
			}
			if r1.Stats.Cycles != r2.Stats.Cycles {
				t.Errorf("nondeterministic cycles: %d vs %d", r1.Stats.Cycles, r2.Stats.Cycles)
			}
			if r1.Stats.LoadRefs == 0 {
				t.Error("workload executed no loads")
			}
		})
	}
}

func TestTrainRefDiffer(t *testing.T) {
	for _, w := range All() {
		tr, rf := w.Train(), w.Ref()
		if tr.Scale >= rf.Scale {
			t.Errorf("%s: train scale %d not smaller than ref %d", w.Name(), tr.Scale, rf.Scale)
		}
		if tr.Seed == rf.Seed {
			t.Errorf("%s: train and ref share a seed", w.Name())
		}
	}
}

// pipeline runs profile (train) -> feedback -> measure (train input, for
// test speed) and returns the speedup result.
func pipeline(t *testing.T, w core.Workload, method instrument.Method) *core.SpeedupResult {
	t.Helper()
	pr, err := core.ProfilePass(w, w.Train(), instrument.Options{Method: method}, machine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sr, err := core.MeasureSpeedup(w, w.Train(), pr.Profiles, prefetch.Options{}, machine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return sr
}

func TestMCFPipelineSpeedsUp(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline run in -short mode")
	}
	sr := pipeline(t, Get("181.mcf"), instrument.EdgeCheck)
	if sr.Speedup < 1.2 {
		t.Errorf("mcf speedup = %.3f, want > 1.2 even on train input", sr.Speedup)
	}
	// mcf must be dominated by SSST decisions.
	var ssst int
	for _, d := range sr.Feedback.Decisions {
		if d.Class == prefetch.SSST && d.K > 0 {
			ssst++
		}
	}
	if ssst == 0 {
		t.Error("mcf produced no SSST prefetches")
	}
}

func TestGapClassifiesPMST(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline run in -short mode")
	}
	sr := pipeline(t, Get("254.gap"), instrument.EdgeCheck)
	var pmst int
	for _, d := range sr.Feedback.Decisions {
		if d.Class == prefetch.PMST && d.K > 0 {
			pmst++
		}
	}
	if pmst == 0 {
		for _, d := range sr.Feedback.Decisions {
			t.Logf("decision: %+v", d)
		}
		t.Error("gap produced no PMST prefetches")
	}
	if sr.Speedup < 1.02 {
		t.Errorf("gap speedup = %.3f, want > 1.02", sr.Speedup)
	}
}

func TestParserOutLoopSSST(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline run in -short mode")
	}
	w := Get("197.parser")
	pr, err := core.ProfilePass(w, w.Train(), instrument.Options{Method: instrument.NaiveAll}, machine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	fb, err := prefetch.Apply(w.Program(), pr.Profiles, prefetch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var outSSST int
	for _, d := range fb.Decisions {
		if !d.InLoop && d.Class == prefetch.SSST && d.K > 0 {
			outSSST++
		}
	}
	if outSSST == 0 {
		t.Error("parser's string-use leaf load was not prefetched as out-loop SSST")
	}
}

func TestComputeBoundWorkloadsUnharmed(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline run in -short mode")
	}
	for _, name := range []string{"186.crafty", "252.eon"} {
		sr := pipeline(t, Get(name), instrument.EdgeCheck)
		if sr.Speedup < 0.99 {
			t.Errorf("%s: prefetching slowed it down: %.3f", name, sr.Speedup)
		}
		if sr.Speedup > 1.05 {
			t.Errorf("%s: unexpected large speedup %.3f for compute-bound code", name, sr.Speedup)
		}
	}
}

func TestSemanticEquivalenceAcrossTransforms(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline run in -short mode")
	}
	// MeasureSpeedup already asserts checksum equality; run it for one
	// pointer-heavy and one compute-heavy workload under both heuristics.
	for _, name := range []string{"181.mcf", "176.gcc"} {
		w := Get(name)
		pr, err := core.ProfilePass(w, w.Train(), instrument.Options{Method: instrument.EdgeCheck}, machine.Config{})
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range []prefetch.Heuristic{prefetch.LatencyOverBody, prefetch.TripBased} {
			if _, err := core.MeasureSpeedup(w, w.Train(), pr.Profiles,
				prefetch.Options{Heuristic: h}, machine.Config{}); err != nil {
				t.Errorf("%s with heuristic %d: %v", name, h, err)
			}
		}
	}
}

func TestTwoPassMatchesNaiveLoopDecisions(t *testing.T) {
	// Section 3.2: "the two-pass method prefetches the same set of loads as
	// the naive-loop method" (once the frequency filters run at feedback).
	if testing.Short() {
		t.Skip("pipeline run in -short mode")
	}
	w := Get("197.parser")

	// Pass 1 of two-pass: edge-only.
	p1, err := core.ProfilePass(w, w.Train(), instrument.Options{Method: instrument.EdgeOnly}, machine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Pass 2: stride profiling of the selected loads.
	p2, err := core.ProfilePass(w, w.Train(), instrument.Options{
		Method:    instrument.TwoPass,
		PriorEdge: p1.Profiles.Edge,
	}, machine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Two-pass collects no integrated edge+stride profile in one run; merge
	// the pass-1 edge profile with the pass-2 stride profile for feedback.
	twoPassProf := &profile.Combined{Edge: p1.Profiles.Edge, Stride: p2.Profiles.Stride}

	naive, err := core.ProfilePass(w, w.Train(), instrument.Options{Method: instrument.NaiveLoop}, machine.Config{})
	if err != nil {
		t.Fatal(err)
	}

	fbTwo, err := prefetch.Apply(w.Program(), twoPassProf, prefetch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fbNaive, err := prefetch.Apply(w.Program(), naive.Profiles, prefetch.Options{})
	if err != nil {
		t.Fatal(err)
	}

	prefetched := func(fb *prefetch.Result) map[machine.LoadKey]prefetch.Class {
		out := make(map[machine.LoadKey]prefetch.Class)
		for _, d := range fb.Decisions {
			if d.K > 0 {
				out[d.Key] = d.Class
			}
		}
		return out
	}
	two := prefetched(fbTwo)
	nl := prefetched(fbNaive)
	if len(two) == 0 {
		t.Fatal("two-pass prefetched nothing")
	}
	for k, c := range two {
		if nl[k] != c {
			t.Errorf("load %v: two-pass class %v, naive-loop class %v", k, c, nl[k])
		}
	}
	for k := range nl {
		if _, ok := two[k]; !ok {
			t.Errorf("naive-loop prefetched %v, two-pass did not", k)
		}
	}
}

var _ = profile.EdgeKey{}
