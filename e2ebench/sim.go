package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"stridepf/internal/core"
	"stridepf/internal/experiments"
	"stridepf/internal/hwpf"
	"stridepf/internal/instrument"
	"stridepf/internal/obs"
	"stridepf/internal/workloads"
)

// paperWorkloads are the twelve benchmarks of the paper's evaluation,
// named explicitly: a synthetic workload registered in the same process
// (the strided-mix drift kernel) would otherwise join workloads.Names()
// and change every figure.
var paperWorkloads = []string{
	"164.gzip", "175.vpr", "176.gcc", "181.mcf", "186.crafty", "197.parser",
	"252.eon", "253.perlbmk", "254.gap", "255.vortex", "256.bzip2", "300.twolf",
}

// simJob is one simulation workload: a fresh serial experiment session per
// repetition, whose concatenated figure texts must equal a golden file.
type simJob struct {
	names  []string
	figs   []string
	golden []byte
	counts func(context.Context, *experiments.Session, []string) (map[string]float64, error)
}

// newPaperFigures makes the calls RunAll makes (figure 15, then 16-25) and
// checks them against the committed figures_output.txt.
func newPaperFigures(root string) (*simJob, error) {
	return newSimJob(root, paperWorkloads, experiments.FigureNames(), "figures_output.txt", paperCounts)
}

// newHWPFArena runs the prefetcher arena over names and checks it against
// golden (relative to root).
func newHWPFArena(root string, names []string, golden string) (*simJob, error) {
	return newSimJob(root, names, []string{"arena"}, golden, arenaCounts)
}

func newSimJob(root string, names, figs []string, golden string,
	counts func(context.Context, *experiments.Session, []string) (map[string]float64, error)) (*simJob, error) {
	want, err := os.ReadFile(filepath.Join(root, golden))
	if err != nil {
		return nil, err
	}
	// The CFG analysis is cached on each workload's shared program: done
	// here, it is set-up, and every repetition measures the same work.
	for _, n := range names {
		w := workloads.Get(n)
		if w == nil {
			return nil, fmt.Errorf("unknown workload %q", n)
		}
		core.EnsureAnalyzed(w.Program())
	}
	return &simJob{names: names, figs: figs, golden: want, counts: counts}, nil
}

func (j *simJob) rep(ctx context.Context, _ int, tr *tracer) (repResult, error) {
	res := newRepResult()
	res.Attempted = 1
	s := experiments.NewSession(experiments.Config{Workloads: j.names, Jobs: 1})
	repID := tr.newID()
	tr.timed(true)
	start := time.Now()
	var out bytes.Buffer
	for _, f := range j.figs {
		f0 := time.Now()
		text, err := s.FigureText(ctx, f, false)
		f1 := time.Now()
		tr.record(0, repID, "experiments.Figure/"+f, "", f0, f1)
		if err != nil {
			return res, fmt.Errorf("figure %s: %w", f, err)
		}
		out.WriteString(text)
		res.Values["experiments.fig"+f+"_s"] = f1.Sub(f0).Seconds()
	}
	end := time.Now()
	tr.timed(false)
	tr.record(repID, 0, "rep", "", start, end)
	res.JobS = end.Sub(start).Seconds()
	if got := out.Bytes(); !bytes.Equal(got, j.golden) {
		res.fail(fmt.Sprintf("output differs from golden at byte %d (%d bytes, want %d)",
			firstDiff(got, j.golden), len(got), len(j.golden)))
	}
	counts, err := j.counts(ctx, s, j.names)
	if err != nil {
		return res, err
	}
	res.Counts = counts
	return res, nil
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// addCache adds a run's cache-hierarchy counters.
func addCache(c map[string]float64, st core.RunStats) {
	c["cache.demand_miss_cycles"] += float64(st.DemandMissCycles)
	c["cache.prefetch_useful"] += float64(st.PrefetchUseful)
	c["cache.prefetch_late"] += float64(st.PrefetchLate)
	c["cache.prefetch_drops"] += float64(st.PrefetchDrops)
}

// paperCounts reads back the memoised clean and profiling cells the paper
// figures computed (memo hits, no simulation) and sums their counters.
func paperCounts(ctx context.Context, s *experiments.Session, names []string) (map[string]float64, error) {
	c := map[string]float64{}
	var sampled experiments.MethodSpec
	for _, m := range experiments.PaperMethods() {
		if m.Name == "sample-"+instrument.EdgeCheck.String() {
			sampled = m
		}
	}
	train := append(experiments.PaperMethods(), experiments.MethodSpec{
		Name: instrument.EdgeOnly.String(), Opts: instrument.Options{Method: instrument.EdgeOnly},
	})
	for _, name := range names {
		w := workloads.Get(name)
		clean, err := s.Clean(ctx, name, w.Ref())
		if err != nil {
			return nil, err
		}
		c["sim.clean_instrs"] += float64(clean.Stats.Instrs)
		c["sim.clean_cycles"] += float64(clean.Stats.Cycles)
		addCache(c, clean)
		runs := make([]*core.ProfileRun, 0, len(train)+1)
		for _, m := range train {
			pr, err := s.Profile(ctx, name, m, w.Train())
			if err != nil {
				return nil, err
			}
			runs = append(runs, pr)
		}
		pr, err := s.Profile(ctx, name, sampled, w.Ref())
		if err != nil {
			return nil, err
		}
		for _, pr := range append(runs, pr) {
			c["sim.profile_instrs"] += float64(pr.Stats.Stats.Instrs)
			c["stride.hook_calls"] += float64(pr.HookInvocations)
			c["stride.processed_refs"] += float64(pr.ProcessedRefs)
			c["stride.lfu_calls"] += float64(pr.LFUCalls)
			addCache(c, pr.Stats)
		}
	}
	return c, nil
}

// arenaCounts reads back the memoised arena cells and sums their runs'
// counters plus each scheme's prefetch lifecycle account.
func arenaCounts(ctx context.Context, s *experiments.Session, names []string) (map[string]float64, error) {
	c := map[string]float64{}
	byScheme := map[string]*obs.ClassStats{}
	for _, name := range names {
		for _, h := range experiments.ArenaHierarchies() {
			for _, scheme := range hwpf.Schemes() {
				cell, err := s.ArenaCell(ctx, name, h.Name, scheme)
				if err != nil {
					return nil, err
				}
				c["sim.clean_instrs"] += float64(cell.Run.Stats.Instrs)
				c["sim.clean_cycles"] += float64(cell.Run.Stats.Cycles)
				addCache(c, cell.Run)
				if byScheme[scheme] == nil {
					byScheme[scheme] = &obs.ClassStats{}
				}
				byScheme[scheme].Add(cell.Stats)
			}
		}
	}
	for scheme, st := range byScheme {
		c["hwpf."+scheme+".issued"] = float64(st.Issued)
		c["hwpf."+scheme+".accuracy"] = st.Accuracy()
	}
	return c, nil
}
