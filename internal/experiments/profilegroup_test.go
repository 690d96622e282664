package experiments

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"stridepf/internal/core"
	"stridepf/internal/profile"
)

// groupWorkload is the workload the profile-group tests run: its whole
// figure set takes well under a second, so they stay on in -short mode and
// the race gate covers the group memo.
const groupWorkload = "164.gzip"

// TestFigureSetProfilesOncePerBinary: the figures profile each workload
// under the six paper methods and edge-only on train and under
// sample-edge-check on ref, but each sample-* method instruments the same
// binary as its exact method, so the set costs 5 profiling executions, not
// 8 — also when a parallel warm-up races the group members.
func TestFigureSetProfilesOncePerBinary(t *testing.T) {
	s := NewSession(Config{Workloads: []string{groupWorkload}, Jobs: 2})
	s.Warm(ctx, 2)
	for _, name := range FigureNames()[1:] {
		if _, err := s.Figure(ctx, name); err != nil {
			t.Fatalf("figure %s: %v", name, err)
		}
	}
	if runs := s.profileRuns.Load(); runs != 5 {
		t.Errorf("one workload's figure set cost %d profiling executions, want 5", runs)
	}
}

// TestTwinProfilesShareOneExecution: concurrent Profile calls for
// edge-check and sample-edge-check on train share one execution, and each
// cell equals its own standalone ProfilePass.
func TestTwinProfilesShareOneExecution(t *testing.T) {
	s := NewSession(Config{Workloads: []string{groupWorkload}})
	w, err := s.workload(groupWorkload)
	if err != nil {
		t.Fatal(err)
	}
	specs := []MethodSpec{PaperMethods()[0], sampleEdgeCheck()}
	got := make([]*core.ProfileRun, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, m := range specs {
		wg.Add(1)
		go func(i int, m MethodSpec) {
			defer wg.Done()
			got[i], errs[i] = s.Profile(ctx, groupWorkload, m, w.Train())
		}(i, m)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", specs[i].Name, err)
		}
	}
	if runs := s.profileRuns.Load(); runs != 1 {
		t.Errorf("edge-check and sample-edge-check cost %d profiling executions, want 1", runs)
	}
	for i, m := range specs {
		want, err := core.ProfilePass(w, w.Train(), m.Opts, s.mcfg(ctx))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encodeProfile(t, got[i].Profiles), encodeProfile(t, want.Profiles)) {
			t.Errorf("%s: grouped profile differs from its standalone run", m.Name)
		}
		if !reflect.DeepEqual(got[i].Stats, want.Stats) || got[i].ProcessedRefs != want.ProcessedRefs ||
			got[i].LFUCalls != want.LFUCalls || got[i].HookInvocations != want.HookInvocations ||
			got[i].ProgramLoadRefs != want.ProgramLoadRefs || got[i].InLoopLoadRefs != want.InLoopLoadRefs {
			t.Errorf("%s: grouped run statistics differ from its standalone run", m.Name)
		}
		if got[i].Lanes != nil {
			t.Errorf("%s: memoised cell carries %d lane runs", m.Name, len(got[i].Lanes))
		}
	}
}

// TestRefProfileRunsAlone: the ref-input sample-edge-check profile of
// Figures 23-25 has no twin, so it costs one execution and memoises one
// group cell holding one run.
func TestRefProfileRunsAlone(t *testing.T) {
	s := NewSession(Config{Workloads: []string{groupWorkload}})
	w, err := s.workload(groupWorkload)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Profile(ctx, groupWorkload, sampleEdgeCheck(), w.Ref()); err != nil {
		t.Fatal(err)
	}
	if runs := s.profileRuns.Load(); runs != 1 {
		t.Errorf("a lone ref profile cost %d profiling executions, want 1", runs)
	}
	cells := 0
	for key, v := range s.cells {
		if _, ok := key.(groupKey); ok {
			cells++
			if runs := v.([]*core.ProfileRun); len(runs) != 1 {
				t.Errorf("a lone ref profile ran %d runtimes, want 1", len(runs))
			}
		}
	}
	if cells != 1 {
		t.Errorf("a lone ref profile memoised %d group cells, want 1", cells)
	}
}

func encodeProfile(t *testing.T, p *profile.Combined) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := profile.DefaultCodec.Encode(&buf, p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
