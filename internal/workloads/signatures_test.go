package workloads

import (
	"testing"

	"stridepf/internal/core"
	"stridepf/internal/instrument"
	"stridepf/internal/machine"
	"stridepf/internal/prefetch"
	"stridepf/internal/stride"
)

// signatures_test verifies each benchmark's designed memory signature: the
// stride statistics the paper reports (or implies) per benchmark must come
// out of the profiler, not just the final speedups.

// naiveAllProfile profiles w's train input with naive-all (every load).
func naiveAllProfile(t *testing.T, name string) *core.ProfileRun {
	t.Helper()
	w := Get(name)
	pr, err := core.ProfilePass(w, w.Train(),
		instrument.Options{Method: instrument.NaiveAll}, machine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

// topRatio returns, for the summary with the most samples matching pred,
// the top-1 stride, its ratio, and the zero-diff ratio.
func dominantSummary(pr *core.ProfileRun, pred func(stride.Summary) bool) (stride.Summary, bool) {
	var best stride.Summary
	found := false
	for _, s := range pr.Profiles.Stride.Summaries() {
		if len(s.TopStrides) == 0 || s.TotalStrides == 0 || !pred(s) {
			continue
		}
		if !found || s.TotalStrides > best.TotalStrides {
			best = s
			found = true
		}
	}
	return best, found
}

func TestParserSignature(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling run in -short mode")
	}
	pr := naiveAllProfile(t, "197.parser")
	// Figure 1's claim: the list loads keep the same stride ~94% of the
	// time. Find the stride-64 load with the most samples.
	s, ok := dominantSummary(pr, func(s stride.Summary) bool {
		return s.Key.Func == "main" && s.TopStrides[0].Value == 64
	})
	if !ok {
		t.Fatal("no stride-64 load in parser's profile")
	}
	ratio := float64(s.TopStrides[0].Freq) / float64(s.TotalStrides)
	if ratio < 0.88 || ratio > 0.98 {
		t.Errorf("parser stride regularity = %.3f, want ~0.94", ratio)
	}
	// The out-loop string-use load shares the same stride pattern.
	leaf, ok := dominantSummary(pr, func(s stride.Summary) bool {
		return s.Key.Func == "use_string"
	})
	if !ok {
		t.Fatal("use_string load not profiled")
	}
	if leaf.TopStrides[0].Value != 64 {
		t.Errorf("use_string top stride = %d, want 64", leaf.TopStrides[0].Value)
	}
}

func TestMCFSignature(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling run in -short mode")
	}
	pr := naiveAllProfile(t, "181.mcf")
	s, ok := dominantSummary(pr, func(s stride.Summary) bool {
		return s.TopStrides[0].Value == 64
	})
	if !ok {
		t.Fatal("no stride-64 load in mcf's profile")
	}
	ratio := float64(s.TopStrides[0].Freq) / float64(s.TotalStrides)
	if ratio < 0.85 {
		t.Errorf("mcf arc stride regularity = %.3f, want ~0.94", ratio)
	}
}

func TestGapSignature(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling run in -short mode")
	}
	pr := naiveAllProfile(t, "254.gap")
	// Figure 2: the handle dereference has several dominant strides (top-1
	// well under the SSST threshold, top-4 covering most samples) and a
	// high zero-difference ratio (phased, not alternating).
	var foundPMST bool
	for _, s := range pr.Profiles.Stride.Summaries() {
		if s.TotalStrides < 1000 || len(s.TopStrides) < 3 {
			continue
		}
		top1 := float64(s.TopStrides[0].Freq) / float64(s.TotalStrides)
		var top4 float64
		for _, e := range s.TopStrides {
			top4 += float64(e.Freq)
		}
		top4 /= float64(s.TotalStrides)
		zdiff := float64(s.ZeroDiffs) / float64(s.TotalStrides)
		if top1 < 0.70 && top4 > 0.60 && zdiff > 0.40 {
			foundPMST = true
		}
	}
	if !foundPMST {
		t.Error("gap has no phased multi-stride load signature")
	}
}

func TestComputeBoundSignatures(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling run in -short mode")
	}
	// crafty, eon and perlbmk must yield no prefetchable loads at all under
	// the default thresholds.
	for _, name := range []string{"186.crafty", "252.eon", "253.perlbmk"} {
		pr := naiveAllProfile(t, name)
		w := Get(name)
		fb, err := prefetch.Apply(w.Program(), pr.Profiles, prefetch.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if fb.Inserted != 0 {
			for _, d := range fb.Decisions {
				if d.K > 0 {
					t.Logf("%s: prefetched %+v", name, d)
				}
			}
			t.Errorf("%s: %d prefetches inserted, want 0", name, fb.Inserted)
		}
	}
}

func TestSequentialScanSignatures(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling run in -short mode")
	}
	// gzip and bzip2 have one perfect stride-8 sequential scan each.
	for _, name := range []string{"164.gzip", "256.bzip2"} {
		pr := naiveAllProfile(t, name)
		s, ok := dominantSummary(pr, func(s stride.Summary) bool {
			return s.TopStrides[0].Value == 8
		})
		if !ok {
			t.Errorf("%s: no stride-8 scan found", name)
			continue
		}
		ratio := float64(s.TopStrides[0].Freq) / float64(s.TotalStrides)
		if ratio < 0.95 {
			t.Errorf("%s: scan regularity = %.3f, want ~1.0", name, ratio)
		}
	}
}

func TestZeroStrideLoadsPresent(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling run in -short mode")
	}
	// The loop-invariant config loads must show up as zero-stride samples
	// under naive profiling (Figure 22's LFU-bypass traffic).
	for _, name := range []string{"181.mcf", "197.parser", "254.gap"} {
		pr := naiveAllProfile(t, name)
		var zeros int64
		for _, s := range pr.Profiles.Stride.Summaries() {
			zeros += s.ZeroStrides
		}
		if zeros == 0 {
			t.Errorf("%s: no zero-stride samples", name)
		}
	}
}

func TestGCCOutLoopShare(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling run in -short mode")
	}
	pr := naiveAllProfile(t, "176.gcc")
	share := float64(pr.ProgramLoadRefs-pr.InLoopLoadRefs) / float64(pr.ProgramLoadRefs)
	if share < 0.25 {
		t.Errorf("gcc out-loop share = %.2f, want > 0.25 (attribute-lookup leaves)", share)
	}
}

func TestStrideProfileStableAcrossInputs(t *testing.T) {
	// The paper's Section 4.3 conclusion at the profile level: for each
	// pointer-heavy benchmark, the train-input and ref-input stride
	// profiles must agree on every prefetched load's dominant stride, and
	// its share must move only a little.
	if testing.Short() {
		t.Skip("profiling runs in -short mode")
	}
	for _, name := range []string{"181.mcf", "197.parser", "254.gap", "255.vortex"} {
		w := Get(name)
		profs := map[string]*core.ProfileRun{}
		for _, in := range []core.Input{w.Train(), w.Ref()} {
			pr, err := core.ProfilePass(w, in,
				instrument.Options{Method: instrument.EdgeCheck}, machine.Config{})
			if err != nil {
				t.Fatal(err)
			}
			profs[in.Name] = pr
		}
		train := profs["train"].Profiles.Stride
		ref := profs["ref"].Profiles.Stride
		// The stability that matters is the classification outcome: a load
		// the train profile classifies as prefetchable must classify the
		// same way (with the same dominant stride for single-stride loads)
		// under the ref profile. Frequency/trip filters are bypassed so the
		// comparison isolates the stride statistics.
		th := prefetch.DefaultThresholds()
		classify := func(s stride.Summary) prefetch.Classification {
			return prefetch.Classify(s, th.FreqThreshold*1000, th.TripThreshold*1000, true, th)
		}
		checked := 0
		for _, ts := range train.Summaries() {
			if ts.TotalStrides < 1000 {
				continue
			}
			tc := classify(ts)
			if tc.Class == prefetch.None {
				continue // pattern-free loads have no stable stride to track
			}
			rs, ok := ref.Lookup(ts.Key)
			if !ok || rs.TotalStrides == 0 {
				t.Errorf("%s: load %v profiled on train but not ref", name, ts.Key)
				continue
			}
			rc := classify(rs)
			if tc.Class != rc.Class {
				t.Errorf("%s: load %v classifies %v (train) vs %v (ref)",
					name, ts.Key, tc.Class, rc.Class)
			}
			if tc.Class == prefetch.SSST && tc.Stride != rc.Stride {
				t.Errorf("%s: load %v SSST stride %d (train) vs %d (ref)",
					name, ts.Key, tc.Stride, rc.Stride)
			}
			checked++
		}
		if checked == 0 {
			t.Errorf("%s: no loads compared", name)
		}
	}
}
