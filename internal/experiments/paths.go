package experiments

import (
	"context"
	"fmt"

	"stridepf/internal/core"
	"stridepf/internal/instrument"
	"stridepf/internal/obs"
	"stridepf/internal/prefetch"
	"stridepf/internal/workloads"
)

// The paths figure is the evaluation of the sixth instrumentation scheme:
// Ball-Larus k-iteration path profiling (instrument.Paths). For every
// selected workload plus the branchy ground-truth kernel it reports, side
// by side, what path sensitivity costs (profiling overhead over the
// edge-only baseline, against edge-check's overhead on the same formula as
// Figure 20) and what it buys (PMST loads whose per-path buckets are
// regular enough to split into path-predicated SSSTs, and the ref-input
// speedup and SSST-class coverage of the split binary against the plain
// feedback binary built from the same profile).
//
// Like the arena, the figure is opt-in: it is not part of FigureNames, so
// RunAll and `-figure all` never compute it and Figures 15-25 stay
// byte-identical to the pre-paths harness.

// pathsSpecFor is the paths profiling configuration for one workload. The
// weave kernel needs a three-iteration numbering (see workloads.WeavePathK);
// everything else uses the default span.
func pathsSpecFor(wname string) MethodSpec {
	opts := instrument.Options{Method: instrument.Paths}
	if wname == workloads.WeaveName {
		opts.PathK = workloads.WeavePathK
	}
	return MethodSpec{Name: instrument.Paths.String(), Opts: opts}
}

// PathsCell is one workload's measurement for the paths figure.
type PathsCell struct {
	// OverheadPaths and OverheadEdgeCheck are profiling overheads over the
	// edge-only baseline on the train input (Figure 20's formula).
	OverheadPaths, OverheadEdgeCheck float64
	// PMSTLoads counts in-loop PMST-classified decisions; SplitLoads counts
	// how many of them the path-split pass converted; PathSSSTs totals the
	// per-path SSST groups emitted across the split loads.
	PMSTLoads, SplitLoads, PathSSSTs int
	// SpeedupSplit and SpeedupPlain compare the path-split and the plain
	// feedback binary — both built from the same paths profile — against
	// the clean binary on the ref input.
	SpeedupSplit, SpeedupPlain float64
	// CoverageSplit and CoveragePlain are the overall miss coverages of the
	// two binaries; CoverageSSST is the SSST-class share of the split run's
	// coverage (the path-predicated prefetches report as SSST).
	CoverageSplit, CoveragePlain, CoverageSSST float64
}

// PathsCell returns the memoised paths measurement for one workload.
func (s *Session) PathsCell(ctx context.Context, wname string) (*PathsCell, error) {
	key := "paths|" + wname
	v, err := s.do(ctx, key, func() (any, error) {
		w, err := s.workload(wname)
		if err != nil {
			return nil, err
		}
		train, ref := w.Train(), w.Ref()
		base, err := s.Profile(ctx, wname, edgeOnlySpec, train)
		if err != nil {
			return nil, err
		}
		ppr, err := s.Profile(ctx, wname, pathsSpecFor(wname), train)
		if err != nil {
			return nil, err
		}
		ecpr, err := s.Profile(ctx, wname, PaperMethods()[0], train)
		if err != nil {
			return nil, err
		}
		over := func(pr *core.ProfileRun) float64 {
			return (float64(pr.Stats.Stats.Cycles) - float64(base.Stats.Stats.Cycles)) /
				float64(base.Stats.Stats.Cycles)
		}

		splitOpts := s.cfg.Prefetch
		splitOpts.EnablePathSplit = true
		splitOpts.PathK = pathsSpecFor(wname).Opts.PathK
		fb, err := prefetch.Apply(w.Program(), ppr.Profiles, splitOpts)
		if err != nil {
			return nil, err
		}
		plainFb, err := prefetch.Apply(w.Program(), ppr.Profiles, s.cfg.Prefetch)
		if err != nil {
			return nil, err
		}
		cell := &PathsCell{
			OverheadPaths:     over(ppr),
			OverheadEdgeCheck: over(ecpr),
			SplitLoads:        fb.PathSplitLoads,
		}
		for _, d := range fb.Decisions {
			if d.Class == prefetch.PMST && d.InLoop {
				cell.PMSTLoads++
			}
			cell.PathSSSTs += d.PathSSSTs
		}

		clean, err := s.Clean(ctx, wname, ref)
		if err != nil {
			return nil, err
		}
		col := obs.NewCollector(s.cfg.Trace.WithRun(key))
		mcfg := s.mcfg(ctx)
		mcfg.Obs = col
		run, err := core.Execute(fb.Prog, w, ref, mcfg)
		if err != nil {
			return nil, ctxErr(ctx, err)
		}
		if run.Ret != clean.Ret {
			return nil, fmt.Errorf("experiments: paths %s: split binary diverged (%d vs %d)",
				wname, run.Ret, clean.Ret)
		}
		if err := col.Reconcile(); err != nil {
			return nil, fmt.Errorf("experiments: paths %s: %w", wname, err)
		}
		if s.cfg.Metrics != nil {
			rep := obs.BuildReport(key, col)
			rep.Workload = wname
			rep.Label = "paths|split"
			s.cfg.Metrics.Register(rep)
		}
		pcol := obs.NewCollector(s.cfg.Trace.WithRun(key + "|plain"))
		pmcfg := s.mcfg(ctx)
		pmcfg.Obs = pcol
		prun, err := core.Execute(plainFb.Prog, w, ref, pmcfg)
		if err != nil {
			return nil, ctxErr(ctx, err)
		}
		if prun.Ret != clean.Ret {
			return nil, fmt.Errorf("experiments: paths %s: plain binary diverged (%d vs %d)",
				wname, prun.Ret, clean.Ret)
		}
		if err := pcol.Reconcile(); err != nil {
			return nil, fmt.Errorf("experiments: paths %s: %w", wname, err)
		}
		cell.SpeedupSplit = float64(clean.Stats.Cycles) / float64(run.Stats.Cycles)
		cell.SpeedupPlain = float64(clean.Stats.Cycles) / float64(prun.Stats.Cycles)
		cell.CoverageSplit = col.Coverage()
		cell.CoveragePlain = pcol.Coverage()
		cell.CoverageSSST = col.ClassCoverage(obs.ClassSSST)
		return cell, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*PathsCell), nil
}

// pathsNames returns the figure's row order: the session's workloads with
// the two ground-truth kernels appended (unless already selected).
func (s *Session) pathsNames() []string {
	names := append([]string(nil), s.names()...)
	for _, extra := range []string{workloads.BranchyName, workloads.WeaveName} {
		seen := false
		for _, n := range names {
			if n == extra {
				seen = true
				break
			}
		}
		if !seen {
			names = append(names, extra)
		}
	}
	return names
}

// Paths assembles the path-profiling figure: one row per workload plus the
// branchy kernel.
func (s *Session) Paths(ctx context.Context) (*Table, error) {
	t := &Table{
		Title: "Path-sensitive stride discovery: profiling cost and PMST path-splitting (paths vs edge-check)",
		Columns: []string{
			"overhead-paths", "overhead-edge-check", "pmst", "split", "path-ssst",
			"speedup-split", "speedup-plain", "cover-split", "cover-plain", "ssst-share",
		},
	}
	for _, wname := range s.pathsNames() {
		cell, err := s.PathsCell(ctx, wname)
		if err != nil {
			return nil, err
		}
		t.AddRow(wname,
			cell.OverheadPaths, cell.OverheadEdgeCheck,
			float64(cell.PMSTLoads), float64(cell.SplitLoads), float64(cell.PathSSSTs),
			cell.SpeedupSplit, cell.SpeedupPlain,
			cell.CoverageSplit, cell.CoveragePlain, cell.CoverageSSST)
	}
	return t, nil
}
