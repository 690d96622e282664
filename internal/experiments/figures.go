package experiments

import (
	"context"
	"fmt"
	"io"
	"math"

	"stridepf/internal/core"
	"stridepf/internal/instrument"
	"stridepf/internal/ir"
	"stridepf/internal/machine"
	"stridepf/internal/prefetch"
	"stridepf/internal/profile"
)

// Fig15 reproduces Figure 15: the benchmark roster. It returns the listing
// as preformatted text since the table is non-numeric.
func (s *Session) Fig15() string {
	out := "Figure 15: SPECINT2000 benchmarks (synthetic reproductions)\n"
	for _, name := range s.names() {
		w, err := s.workload(name)
		if err != nil {
			continue
		}
		out += fmt.Sprintf("%-13s %s\n", name, w.Description())
	}
	return out
}

// Fig16 reproduces Figure 16: the speedup of stride-profile-guided
// prefetching on the reference input, with profiles collected on the train
// input by each of the six one-pass profiling methods.
func (s *Session) Fig16(ctx context.Context) (*Table, error) {
	methods := PaperMethods()
	t := &Table{Title: "Figure 16: Speedup of stride prefetching (train profile, ref run)"}
	for _, m := range methods {
		t.Columns = append(t.Columns, m.Name)
	}
	for _, name := range s.names() {
		w, err := s.workload(name)
		if err != nil {
			return nil, err
		}
		clean := func() error { _, err := s.Clean(ctx, name, w.Ref()); return err }
		row, err := s.row(len(methods), clean, func(i int) (float64, error) {
			pr, err := s.Profile(ctx, name, methods[i], w.Train())
			if err != nil {
				return 0, err
			}
			return s.Speedup(ctx, name, methods[i].Name+"-train", pr.Profiles, w.Ref())
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(name, row...)
	}
	t.Mean()
	return t, nil
}

// Fig17 reproduces Figure 17: the percentage of dynamic load references
// from in-loop and out-loop loads, measured on the reference input.
func (s *Session) Fig17(ctx context.Context) (*Table, error) {
	t := &Table{
		Title:     "Figure 17: Percentage of in-loop and out-loop load references (ref input)",
		Columns:   []string{"in-loop%", "out-loop%"},
		Precision: 1,
	}
	for _, name := range s.names() {
		w, err := s.workload(name)
		if err != nil {
			return nil, err
		}
		run, err := s.Clean(ctx, name, w.Ref())
		if err != nil {
			return nil, err
		}
		keys := core.OriginalLoadKeys(w.Program())
		var total, inLoop uint64
		for key, il := range keys {
			c := run.LoadCounts[key]
			total += c
			if il {
				inLoop += c
			}
		}
		if total == 0 {
			t.AddRow(name, math.NaN(), math.NaN())
			continue
		}
		inPct := 100 * float64(inLoop) / float64(total)
		t.AddRow(name, inPct, 100-inPct)
	}
	t.Mean()
	return t, nil
}

// classifyAll classifies every load profiled by a naive-all train run and
// returns, per stride class, the dynamic load references attributed to it,
// split by in-loop/out-loop. The weights are the profiling run's exact
// per-load reference counts; the denominator is the program's total load
// references.
type classBuckets struct {
	total   uint64
	inLoop  map[prefetch.Class]uint64
	outLoop map[prefetch.Class]uint64
}

// classify memoises classifyCompute per workload (Figures 18 and 19 both
// consume it).
func (s *Session) classify(ctx context.Context, name string) (*classBuckets, error) {
	v, err := s.do(ctx, "classify|"+name, func() (any, error) { return s.classifyCompute(ctx, name) })
	if err != nil {
		return nil, err
	}
	return v.(*classBuckets), nil
}

func (s *Session) classifyCompute(ctx context.Context, name string) (*classBuckets, error) {
	w, err := s.workload(name)
	if err != nil {
		return nil, err
	}
	m := MethodSpec{Name: instrument.NaiveAll.String(), Opts: instrument.Options{Method: instrument.NaiveAll}}
	pr, err := s.Profile(ctx, name, m, w.Train())
	if err != nil {
		return nil, err
	}
	th := s.cfg.Prefetch.Thresholds
	if th == (prefetch.Thresholds{}) {
		th = prefetch.DefaultThresholds()
	}

	cb := &classBuckets{
		total:   pr.ProgramLoadRefs,
		inLoop:  make(map[prefetch.Class]uint64),
		outLoop: make(map[prefetch.Class]uint64),
	}
	prog := w.Program()
	for fname, f := range prog.Funcs {
		li := core.Loops(prog, fname)
		f.Instrs(func(b *ir.Block, _ int, in *ir.Instr) {
			if in.Op != ir.OpLoad {
				return
			}
			key := machine.LoadKey{Func: fname, ID: in.ID}
			refs := pr.Stats.LoadCounts[key]
			if refs == 0 {
				return
			}
			sum, ok := pr.Profiles.Stride.Lookup(key)
			inLoop := li.InLoop(b)
			class := prefetch.None
			if ok {
				freq := pr.Profiles.Edge.BlockFreq(fname, b)
				trip := math.Inf(1)
				if l := li.InnermostLoop(b); l != nil {
					trip = pr.Profiles.Edge.TripCount(fname, l)
				}
				class = prefetch.Classify(sum, freq, trip, inLoop, th).Class
			}
			if inLoop {
				cb.inLoop[class] += refs
			} else {
				cb.outLoop[class] += refs
			}
		})
	}
	return cb, nil
}

// classColumns is the presentation order of Figures 18/19.
var classColumns = []prefetch.Class{prefetch.SSST, prefetch.PMST, prefetch.WSST, prefetch.None}

// Fig18 reproduces Figure 18: the distribution of out-loop load references
// by stride property (naive-all profile), as percentages of all load
// references.
func (s *Session) Fig18(ctx context.Context) (*Table, error) {
	return s.distTable(ctx, "Figure 18: Distribution of out-loop loads by stride properties (% of load refs)",
		func(cb *classBuckets) map[prefetch.Class]uint64 { return cb.outLoop })
}

// Fig19 reproduces Figure 19: the distribution of in-loop load references
// by stride property.
func (s *Session) Fig19(ctx context.Context) (*Table, error) {
	return s.distTable(ctx, "Figure 19: Distribution of in-loop loads by stride properties (% of load refs)",
		func(cb *classBuckets) map[prefetch.Class]uint64 { return cb.inLoop })
}

func (s *Session) distTable(ctx context.Context, title string, sel func(*classBuckets) map[prefetch.Class]uint64) (*Table, error) {
	t := &Table{Title: title, Precision: 1}
	for _, c := range classColumns {
		t.Columns = append(t.Columns, c.String())
	}
	for _, name := range s.names() {
		cb, err := s.classify(ctx, name)
		if err != nil {
			return nil, err
		}
		row := make([]float64, 0, len(classColumns))
		bucket := sel(cb)
		for _, c := range classColumns {
			if cb.total == 0 {
				row = append(row, math.NaN())
				continue
			}
			row = append(row, 100*float64(bucket[c])/float64(cb.total))
		}
		t.AddRow(name, row...)
	}
	t.Mean()
	return t, nil
}

// edgeOnlySpec is the overhead baseline: frequency profiling alone.
var edgeOnlySpec = MethodSpec{Name: instrument.EdgeOnly.String(), Opts: instrument.Options{Method: instrument.EdgeOnly}}

// Fig20 reproduces Figure 20: profiling overhead of each integrated method
// over edge-frequency profiling alone, on the train input:
// (cycles(method) - cycles(edge-only)) / cycles(edge-only).
func (s *Session) Fig20(ctx context.Context) (*Table, error) {
	methods := PaperMethods()
	t := &Table{Title: "Figure 20: Profiling overhead over edge profiling alone (train input)"}
	for _, m := range methods {
		t.Columns = append(t.Columns, m.Name)
	}
	for _, name := range s.names() {
		w, err := s.workload(name)
		if err != nil {
			return nil, err
		}
		edgeOnly := func() error { _, err := s.Profile(ctx, name, edgeOnlySpec, w.Train()); return err }
		row, err := s.row(len(methods), edgeOnly, func(i int) (float64, error) {
			pr, err := s.Profile(ctx, name, methods[i], w.Train())
			if err != nil {
				return 0, err
			}
			base, err := s.Profile(ctx, name, edgeOnlySpec, w.Train())
			if err != nil {
				return 0, err
			}
			return (float64(pr.Stats.Stats.Cycles) - float64(base.Stats.Stats.Cycles)) /
				float64(base.Stats.Stats.Cycles), nil
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(name, row...)
	}
	t.Mean()
	return t, nil
}

// Fig21 reproduces Figure 21: the percentage of load references processed
// by the strideProf routine (after sampling), per method.
func (s *Session) Fig21(ctx context.Context) (*Table, error) {
	return s.rateTable(ctx, "Figure 21: %% of load references processed in strideProf (after sampling)",
		func(pr *core.ProfileRun) float64 { return float64(pr.ProcessedRefs) })
}

// Fig22 reproduces Figure 22: the percentage of load references processed
// by the LFU routine (the zero-stride fast path bypasses it).
func (s *Session) Fig22(ctx context.Context) (*Table, error) {
	return s.rateTable(ctx, "Figure 22: %% of load references processed by LFU",
		func(pr *core.ProfileRun) float64 { return float64(pr.LFUCalls) })
}

func (s *Session) rateTable(ctx context.Context, title string, num func(*core.ProfileRun) float64) (*Table, error) {
	methods := PaperMethods()
	t := &Table{Title: fmt.Sprintf(title), Precision: 1}
	for _, m := range methods {
		t.Columns = append(t.Columns, m.Name)
	}
	for _, name := range s.names() {
		w, err := s.workload(name)
		if err != nil {
			return nil, err
		}
		row, err := s.row(len(methods), nil, func(i int) (float64, error) {
			pr, err := s.Profile(ctx, name, methods[i], w.Train())
			if err != nil || pr.ProgramLoadRefs == 0 {
				return math.NaN(), err
			}
			return 100 * num(pr) / float64(pr.ProgramLoadRefs), nil
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(name, row...)
	}
	t.Mean()
	return t, nil
}

// sampleEdgeCheck is the method the input-sensitivity study uses (the
// paper's recommended production configuration).
func sampleEdgeCheck() MethodSpec {
	return MethodSpec{
		Name: "sample-" + instrument.EdgeCheck.String(),
		Opts: instrument.Options{Method: instrument.EdgeCheck, Stride: sampledConfig()},
	}
}

// sensitivitySpec describes one of the three input-sensitivity studies
// (Figures 23-25); title+cols[i] labels column i's speedup cell.
type sensitivitySpec struct {
	title string
	cols  []string
	mix   func(train, ref *core.ProfileRun) []*profile.Combined
}

func sensitivitySpecs() []sensitivitySpec {
	return []sensitivitySpec{
		{
			title: "Figure 23: Performance of train and ref profiles (sample-edge-check)",
			cols:  []string{"train", "ref"},
			mix: func(train, ref *core.ProfileRun) []*profile.Combined {
				return []*profile.Combined{
					train.Profiles,
					ref.Profiles,
				}
			},
		},
		{
			title: "Figure 24: Performance of train and edge.ref-stride.train",
			cols:  []string{"train", "edge.ref-stride.train"},
			mix: func(train, ref *core.ProfileRun) []*profile.Combined {
				return []*profile.Combined{
					train.Profiles,
					{Edge: ref.Profiles.Edge, Stride: train.Profiles.Stride},
				}
			},
		},
		{
			title: "Figure 25: Performance of train and edge.train-stride.ref",
			cols:  []string{"train", "edge.train-stride.ref"},
			mix: func(train, ref *core.ProfileRun) []*profile.Combined {
				return []*profile.Combined{
					train.Profiles,
					{Edge: train.Profiles.Edge, Stride: ref.Profiles.Stride},
				}
			},
		},
	}
}

// Fig23 reproduces Figure 23: speedup of binaries built from train-input
// profiles versus ref-input profiles, both measured on the ref input.
func (s *Session) Fig23(ctx context.Context) (*Table, error) {
	return s.sensitivityTable(ctx, sensitivitySpecs()[0])
}

// Fig24 reproduces Figure 24: train versus a mixed profile using the ref
// edge profile and the train stride profile.
func (s *Session) Fig24(ctx context.Context) (*Table, error) {
	return s.sensitivityTable(ctx, sensitivitySpecs()[1])
}

// Fig25 reproduces Figure 25: train versus a mixed profile using the train
// edge profile and the ref stride profile.
func (s *Session) Fig25(ctx context.Context) (*Table, error) {
	return s.sensitivityTable(ctx, sensitivitySpecs()[2])
}

func (s *Session) sensitivityTable(ctx context.Context, spec sensitivitySpec) (*Table, error) {
	m := sampleEdgeCheck()
	t := &Table{Title: spec.title, Columns: spec.cols}
	for _, name := range s.names() {
		w, err := s.workload(name)
		if err != nil {
			return nil, err
		}
		clean := func() error { _, err := s.Clean(ctx, name, w.Ref()); return err }
		row, err := s.row(len(spec.cols), clean, func(i int) (float64, error) {
			trainPR, err := s.Profile(ctx, name, m, w.Train())
			if err != nil {
				return 0, err
			}
			refPR, err := s.Profile(ctx, name, m, w.Ref())
			if err != nil {
				return 0, err
			}
			p := spec.mix(trainPR, refPR)[i]
			return s.Speedup(ctx, name, spec.title+spec.cols[i], p, w.Ref())
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(name, row...)
	}
	t.Mean()
	return t, nil
}

// RunAll regenerates every figure and writes the tables to w. Unless
// cfg.Jobs pins the session to one worker, the pipeline cells are
// precomputed in parallel first; the tables are then assembled serially
// from the memoised cells, so the output is byte-identical to a serial run.
func RunAll(ctx context.Context, w io.Writer, cfg Config) error {
	s := NewSession(cfg)
	if cfg.jobs() != 1 {
		s.Warm(ctx, cfg.jobs())
	}
	fmt.Fprintln(w, s.Fig15())
	for _, name := range FigureNames() {
		if name == "15" {
			continue
		}
		t, err := s.Figure(ctx, name)
		if err != nil {
			return fmt.Errorf("figure %s: %w", name, err)
		}
		fmt.Fprintln(w, t)
	}
	return nil
}
