// Package stridepf's root benchmark harness regenerates every evaluation
// figure of the paper (one benchmark function per table/figure) and runs
// the ablation studies listed in DESIGN.md. Each benchmark executes the
// full simulation pipeline once per iteration and reports its headline
// numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the paper's results table by table. For the full text tables,
// run cmd/experiments.
package stridepf

import (
	"sync"
	"testing"

	"stridepf/internal/baseline"
	"stridepf/internal/cache"
	"stridepf/internal/core"
	"stridepf/internal/experiments"
	"stridepf/internal/hwpf"
	"stridepf/internal/instrument"
	"stridepf/internal/ir"
	"stridepf/internal/machine"
	"stridepf/internal/opt"
	"stridepf/internal/prefetch"
	"stridepf/internal/stride"
	"stridepf/internal/workloads"
)

// allocWorkload is a bench-local list walk whose node-allocation order can
// be made regular (parser-like) or shuffled, isolating the effect of
// allocation order on prefetchability.
type allocWorkload struct {
	regularity float64
	once       sync.Once
	prog       *ir.Program
}

func (w *allocWorkload) Name() string        { return "bench.allocorder" }
func (w *allocWorkload) Description() string { return "allocation-order ablation list walk" }
func (w *allocWorkload) Train() core.Input   { return core.Input{Name: "train", Scale: 1, Seed: 7} }
func (w *allocWorkload) Ref() core.Input     { return core.Input{Name: "ref", Scale: 4, Seed: 8} }

func (w *allocWorkload) Program() *ir.Program {
	w.once.Do(func() {
		b := ir.NewBuilder("main")
		ohead := b.Block("ohead")
		obody := b.Block("obody")
		whead := b.Block("whead")
		wbody := b.Block("wbody")
		oinc := b.Block("oinc")
		exit := b.Block("exit")

		sum := b.Const(0)
		zero := b.Const(0)
		passes := b.Load(b.Const(0x2008), 0).Dst
		i := b.Const(0)
		b.Br(ohead)

		b.At(ohead)
		b.CondBr(b.CmpLT(i, passes), obody, exit)

		p := b.F.NewReg()
		b.At(obody)
		b.LoadTo(p, b.Const(0x2000), 0)
		b.Br(whead)

		b.At(whead)
		b.CondBr(b.CmpNE(p, zero), wbody, oinc)

		b.At(wbody)
		v := b.Load(p, 0)
		b.Mov(sum, b.Add(sum, v.Dst))
		b.LoadTo(p, p, 8)
		b.Br(whead)

		b.At(oinc)
		b.AddITo(i, i, 1)
		b.Br(ohead)

		b.At(exit)
		b.Ret(sum)
		w.prog = ir.NewProgram()
		w.prog.Add(b.Finish())
	})
	return w.prog
}

func (w *allocWorkload) Setup(m *machine.Machine, in core.Input) {
	n := 10_000 * in.Scale
	rng := in.Seed
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	addrs := make([]uint64, n)
	scatter := m.Heap.Alloc(int64(n) * 640)
	si := 0
	for i := range addrs {
		if float64(next()%1000)/1000 < w.regularity {
			addrs[i] = m.Heap.Alloc(64)
		} else {
			addrs[i] = scatter + uint64((si*577)%n)*640
			si++
		}
	}
	for i := range addrs {
		m.Mem.Store(addrs[i], int64(i%101))
		var nxt int64
		if i+1 < n {
			nxt = int64(addrs[i+1])
		}
		m.Mem.Store(addrs[i]+8, nxt)
	}
	m.Mem.Store(0x2000, int64(addrs[0]))
	m.Mem.Store(0x2008, 3)
}

// headline extracts a named row/column cell from a figure table.
func headline(b *testing.B, t *experiments.Table, row, col string) float64 {
	b.Helper()
	ci := -1
	for i, c := range t.Columns {
		if c == col {
			ci = i
		}
	}
	if ci < 0 {
		b.Fatalf("column %q missing", col)
	}
	for _, r := range t.Rows {
		if r.Name == row {
			return r.Values[ci]
		}
	}
	b.Fatalf("row %q missing", row)
	return 0
}

// BenchmarkFig16Speedup regenerates Figure 16 (speedup of stride
// prefetching per profiling method across all twelve benchmarks) and
// reports the paper's headline numbers: mcf/gap/parser speedups and the
// suite average under the edge-check method.
func BenchmarkFig16Speedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSession(experiments.Config{})
		t, err := s.Fig16(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(headline(b, t, "181.mcf", "edge-check"), "mcf-speedup")
		b.ReportMetric(headline(b, t, "254.gap", "edge-check"), "gap-speedup")
		b.ReportMetric(headline(b, t, "197.parser", "edge-check"), "parser-speedup")
		b.ReportMetric(headline(b, t, "average", "edge-check"), "avg-speedup")
	}
}

// BenchmarkFig17LoadMix regenerates Figure 17 (in-loop vs out-loop load
// reference percentages).
func BenchmarkFig17LoadMix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSession(experiments.Config{})
		t, err := s.Fig17(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(headline(b, t, "average", "in-loop%"), "inloop-pct")
		b.ReportMetric(headline(b, t, "average", "out-loop%"), "outloop-pct")
	}
}

// BenchmarkFig18OutLoopDist regenerates Figure 18 (distribution of out-loop
// loads by stride property; the paper's point is that only a ~2% sliver is
// prefetchable out-loop SSST).
func BenchmarkFig18OutLoopDist(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSession(experiments.Config{})
		t, err := s.Fig18(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(headline(b, t, "average", "SSST"), "outloop-ssst-pct")
		b.ReportMetric(headline(b, t, "average", "PMST"), "outloop-pmst-pct")
	}
}

// BenchmarkFig19InLoopDist regenerates Figure 19 (distribution of in-loop
// loads by stride property: nearly all prefetchable patterns are SSST or
// PMST).
func BenchmarkFig19InLoopDist(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSession(experiments.Config{})
		t, err := s.Fig19(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(headline(b, t, "average", "SSST"), "inloop-ssst-pct")
		b.ReportMetric(headline(b, t, "average", "PMST"), "inloop-pmst-pct")
	}
}

// BenchmarkFig20Overhead regenerates Figure 20 (profiling overhead over
// edge profiling alone; the paper's headline is sample-edge-check ~17%).
func BenchmarkFig20Overhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSession(experiments.Config{})
		t, err := s.Fig20(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(headline(b, t, "average", "edge-check"), "edgecheck-overhead")
		b.ReportMetric(headline(b, t, "average", "naive-loop"), "naiveloop-overhead")
		b.ReportMetric(headline(b, t, "average", "naive-all"), "naiveall-overhead")
		b.ReportMetric(headline(b, t, "average", "sample-edge-check"), "sampled-overhead")
	}
}

// BenchmarkFig21StrideProfRate regenerates Figure 21 (% of load references
// processed by strideProf after sampling).
func BenchmarkFig21StrideProfRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSession(experiments.Config{})
		t, err := s.Fig21(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(headline(b, t, "average", "edge-check"), "edgecheck-pct")
		b.ReportMetric(headline(b, t, "average", "sample-edge-check"), "sampled-pct")
	}
}

// BenchmarkFig22LFURate regenerates Figure 22 (% of load references
// reaching the LFU routine; the gap to Figure 21 is the zero-stride fast
// path).
func BenchmarkFig22LFURate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSession(experiments.Config{})
		t, err := s.Fig22(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(headline(b, t, "average", "naive-all"), "naiveall-lfu-pct")
		b.ReportMetric(headline(b, t, "average", "edge-check"), "edgecheck-lfu-pct")
	}
}

// BenchmarkFig23TrainRef regenerates Figure 23 (sensitivity to the
// profiling input: train-profiled vs ref-profiled binaries, both on ref).
func BenchmarkFig23TrainRef(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSession(experiments.Config{})
		t, err := s.Fig23(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(headline(b, t, "average", "train"), "train-speedup")
		b.ReportMetric(headline(b, t, "average", "ref"), "ref-speedup")
	}
}

// BenchmarkFig24EdgeRefStrideTrain regenerates Figure 24 (ref edge profile
// with train stride profile).
func BenchmarkFig24EdgeRefStrideTrain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSession(experiments.Config{})
		t, err := s.Fig24(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(headline(b, t, "average", "train"), "train-speedup")
		b.ReportMetric(headline(b, t, "average", "edge.ref-stride.train"), "mixed-speedup")
	}
}

// BenchmarkFig25EdgeTrainStrideRef regenerates Figure 25 (train edge
// profile with ref stride profile — the stride profile's stability).
func BenchmarkFig25EdgeTrainStrideRef(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSession(experiments.Config{})
		t, err := s.Fig25(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(headline(b, t, "average", "train"), "train-speedup")
		b.ReportMetric(headline(b, t, "average", "edge.train-stride.ref"), "mixed-speedup")
	}
}

// ---- ablation benches (DESIGN.md section 5) ----

// profileCycles runs one profiling pass of mcf and returns its cycle count.
func profileCycles(b *testing.B, opts instrument.Options) uint64 {
	b.Helper()
	w := workloads.Get("181.mcf")
	pr, err := core.ProfilePass(w, w.Train(), opts, machine.Config{})
	if err != nil {
		b.Fatal(err)
	}
	return pr.Stats.Stats.Cycles
}

// BenchmarkAblationZeroStrideFastPath measures the profiling-cost benefit
// of counting zero strides without invoking the LFU routine, by comparing
// the naive-all pass against one whose cost model charges the LFU price on
// the zero-stride path too.
func BenchmarkAblationZeroStrideFastPath(b *testing.B) {
	for i := 0; i < b.N; i++ {
		withFast := profileCycles(b, instrument.Options{Method: instrument.NaiveAll})
		costs := stride.DefaultCosts()
		costs.ZeroStride += costs.LFU // as if zero strides went through LFU
		withoutFast := profileCycles(b, instrument.Options{
			Method: instrument.NaiveAll,
			Stride: stride.Config{Costs: costs},
		})
		b.ReportMetric(float64(withoutFast)/float64(withFast), "slowdown-without-fastpath")
	}
}

// BenchmarkAblationValueMasking compares exact stride matching against the
// enhanced runtime's is_same_value 16-byte masking (Figure 7): masking
// shrinks the tracked value set, so the dominant stride's share rises.
func BenchmarkAblationValueMasking(b *testing.B) {
	w := workloads.Get("254.gap")
	for i := 0; i < b.N; i++ {
		for _, enhanced := range []bool{false, true} {
			pr, err := core.ProfilePass(w, w.Train(), instrument.Options{
				Method: instrument.EdgeCheck,
				Stride: stride.Config{Enhanced: enhanced},
			}, machine.Config{})
			if err != nil {
				b.Fatal(err)
			}
			var top1 float64
			for _, s := range pr.Profiles.Stride.Summaries() {
				if len(s.TopStrides) > 0 && s.TotalStrides > 0 {
					r := float64(s.TopStrides[0].Freq) / float64(s.TotalStrides)
					if r > top1 {
						top1 = r
					}
				}
			}
			name := "top1-share-exact"
			if enhanced {
				name = "top1-share-masked"
			}
			b.ReportMetric(top1, name)
		}
	}
}

// BenchmarkAblationTripThreshold sweeps the trip-count threshold TT that
// guards strideProf calls in the edge-check method: lower thresholds
// profile more references for the same resulting speedup.
func BenchmarkAblationTripThreshold(b *testing.B) {
	w := workloads.Get("197.parser")
	for i := 0; i < b.N; i++ {
		for _, tt := range []int{16, 128, 1024} {
			pr, err := core.ProfilePass(w, w.Train(), instrument.Options{
				Method:        instrument.EdgeCheck,
				TripThreshold: tt,
			}, machine.Config{})
			if err != nil {
				b.Fatal(err)
			}
			pct := 100 * float64(pr.ProcessedRefs) / float64(pr.ProgramLoadRefs)
			switch tt {
			case 16:
				b.ReportMetric(pct, "processed-pct-TT16")
			case 128:
				b.ReportMetric(pct, "processed-pct-TT128")
			case 1024:
				b.ReportMetric(pct, "processed-pct-TT1024")
			}
		}
	}
}

// BenchmarkAblationDistance compares the prefetch-distance heuristics of
// Section 2.2 (K = L/B vs K = trip/TT vs a fixed maximum) on mcf.
func BenchmarkAblationDistance(b *testing.B) {
	w := workloads.Get("181.mcf")
	pr, err := core.ProfilePass(w, w.Train(),
		instrument.Options{Method: instrument.EdgeCheck}, machine.Config{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, h := range []struct {
			name string
			heur prefetch.Heuristic
		}{
			{"speedup-LB", prefetch.LatencyOverBody},
			{"speedup-trip", prefetch.TripBased},
			{"speedup-fixed", prefetch.FixedDistance},
		} {
			sr, err := core.MeasureSpeedup(w, w.Ref(), pr.Profiles,
				prefetch.Options{Heuristic: h.heur}, machine.Config{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(sr.Speedup, h.name)
		}
	}
}

// BenchmarkAblationWSST toggles conditional prefetching for
// weak-single-stride loads (the paper leaves it disabled: "it does not show
// noticeable performance contribution").
func BenchmarkAblationWSST(b *testing.B) {
	w := workloads.Get("300.twolf")
	pr, err := core.ProfilePass(w, w.Train(),
		instrument.Options{Method: instrument.EdgeCheck}, machine.Config{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		off, err := core.MeasureSpeedup(w, w.Ref(), pr.Profiles,
			prefetch.Options{EnableWSST: false}, machine.Config{})
		if err != nil {
			b.Fatal(err)
		}
		on, err := core.MeasureSpeedup(w, w.Ref(), pr.Profiles,
			prefetch.Options{EnableWSST: true}, machine.Config{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(off.Speedup, "speedup-wsst-off")
		b.ReportMetric(on.Speedup, "speedup-wsst-on")
	}
}

// BenchmarkAblationTLB enables the optional data-TLB model (the paper's
// Itanium numbers include DTLB stalls in the ~40% memory-stall figure).
// Prefetches cannot hide page walks — lfetch drops on a TLB miss — so the
// speedup shrinks slightly with the TLB on.
func BenchmarkAblationTLB(b *testing.B) {
	w := workloads.Get("181.mcf")
	pr, err := core.ProfilePass(w, w.Train(),
		instrument.Options{Method: instrument.EdgeCheck}, machine.Config{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		plain, err := core.MeasureSpeedup(w, w.Ref(), pr.Profiles, prefetch.Options{}, machine.Config{})
		if err != nil {
			b.Fatal(err)
		}
		hcfg := cache.ItaniumConfig()
		tlb := cache.ItaniumTLBConfig()
		hcfg.TLB = &tlb
		withTLB, err := core.MeasureSpeedup(w, w.Ref(), pr.Profiles,
			prefetch.Options{Hier: hcfg}, machine.Config{Hierarchy: hcfg})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(plain.Speedup, "speedup-no-tlb")
		b.ReportMetric(withTLB.Speedup, "speedup-with-tlb")
	}
}

// BenchmarkAblationOutLoopDynamic tests the paper's Section 2.3 argument:
// prefetching out-loop PMST loads through a static memory slot is not
// worth the per-execution slot traffic. gap's elm_size leaf is the
// out-loop PMST load.
func BenchmarkAblationOutLoopDynamic(b *testing.B) {
	w := workloads.Get("254.gap")
	pr, err := core.ProfilePass(w, w.Train(),
		instrument.Options{Method: instrument.NaiveAll}, machine.Config{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		off, err := core.MeasureSpeedup(w, w.Ref(), pr.Profiles, prefetch.Options{}, machine.Config{})
		if err != nil {
			b.Fatal(err)
		}
		on, err := core.MeasureSpeedup(w, w.Ref(), pr.Profiles,
			prefetch.Options{OutLoopDynamic: true}, machine.Config{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(off.Speedup, "speedup-outloop-off")
		b.ReportMetric(on.Speedup, "speedup-outloop-dynamic")
	}
}

// BenchmarkExtensionRefDistance measures the reference-distance extension
// (Section 6, first future-work item): profiling with distance tracking and
// feeding the veto threshold into the feedback pass. With a generous
// threshold nothing changes; the bench reports the measured profiling cost
// of the extra bookkeeping.
func BenchmarkExtensionRefDistance(b *testing.B) {
	w := workloads.Get("197.parser")
	for i := 0; i < b.N; i++ {
		plain, err := core.ProfilePass(w, w.Train(),
			instrument.Options{Method: instrument.EdgeCheck}, machine.Config{})
		if err != nil {
			b.Fatal(err)
		}
		dist, err := core.ProfilePass(w, w.Train(), instrument.Options{
			Method: instrument.EdgeCheck,
			Stride: stride.Config{RefDistance: true},
		}, machine.Config{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(dist.Stats.Stats.Cycles)/float64(plain.Stats.Stats.Cycles),
			"profiling-cost-ratio")

		sr, err := core.MeasureSpeedup(w, w.Ref(), dist.Profiles,
			prefetch.Options{MaxRefDistance: 1e6}, machine.Config{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sr.Speedup, "speedup-with-veto")
	}
}

// BenchmarkExtensionIndirect measures dependent-load (indirect)
// prefetching on mcf with scattered node placement simulated by comparing
// mcf runs with and without EnableIndirect (on the standard mcf, node
// pointers are strided, so the indirect prefetches largely duplicate the
// SSST ones; the metric shows the mechanism costs nothing when redundant).
func BenchmarkExtensionIndirect(b *testing.B) {
	w := workloads.Get("181.mcf")
	pr, err := core.ProfilePass(w, w.Train(),
		instrument.Options{Method: instrument.EdgeCheck}, machine.Config{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		off, err := core.MeasureSpeedup(w, w.Ref(), pr.Profiles, prefetch.Options{}, machine.Config{})
		if err != nil {
			b.Fatal(err)
		}
		on, err := core.MeasureSpeedup(w, w.Ref(), pr.Profiles,
			prefetch.Options{EnableIndirect: true}, machine.Config{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(off.Speedup, "speedup-indirect-off")
		b.ReportMetric(on.Speedup, "speedup-indirect-on")
	}
}

// BenchmarkExtensionAllocationOrder quantifies the paper's third
// future-work idea from the opposite direction: how much prefetchability
// depends on allocation order. The same list walk is measured with
// allocation-order regularity 0.94 (parser-like) versus 0.30 (a heavily
// fragmented heap): the classifier loses the stride pattern and the
// speedup collapses, which is exactly why the paper proposes customised
// allocation to create strides.
func BenchmarkExtensionAllocationOrder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		regular := allocOrderSpeedup(b, 0.94)
		shuffled := allocOrderSpeedup(b, 0.30)
		b.ReportMetric(regular, "speedup-regular-alloc")
		b.ReportMetric(shuffled, "speedup-shuffled-alloc")
	}
}

func allocOrderSpeedup(b *testing.B, regularity float64) float64 {
	b.Helper()
	w := &allocWorkload{regularity: regularity}
	pr, err := core.ProfilePass(w, w.Train(),
		instrument.Options{Method: instrument.EdgeCheck}, machine.Config{})
	if err != nil {
		b.Fatal(err)
	}
	sr, err := core.MeasureSpeedup(w, w.Ref(), pr.Profiles, prefetch.Options{}, machine.Config{})
	if err != nil {
		b.Fatal(err)
	}
	return sr.Speedup
}

// optimizedWorkload wraps a workload with its optimised program (same
// Setup, same inputs).
type optimizedWorkload struct {
	core.Workload
	prog *ir.Program
}

func (w *optimizedWorkload) Program() *ir.Program { return w.prog }

// BenchmarkOptimizerInteraction measures how classic optimisation shifts
// the profiling picture: LICM hoists the loop-invariant re-loads out of
// mcf's hot loop, so the naive profiler sees fewer zero-stride samples
// (Figure 22's LFU-bypass traffic shrinks) while the prefetching speedup is
// unchanged — the stride loads themselves cannot be optimised away.
func BenchmarkOptimizerInteraction(b *testing.B) {
	w := workloads.Get("181.mcf")
	optProg, ost, err := opt.Run(w.Program(), opt.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ow := &optimizedWorkload{Workload: w, prog: optProg}
	b.ReportMetric(float64(ost.Hoisted), "hoisted-instrs")

	for i := 0; i < b.N; i++ {
		zeroShare := func(wk core.Workload) float64 {
			pr, err := core.ProfilePass(wk, wk.Train(),
				instrument.Options{Method: instrument.NaiveAll}, machine.Config{})
			if err != nil {
				b.Fatal(err)
			}
			var zeros, total int64
			for _, s := range pr.Profiles.Stride.Summaries() {
				zeros += s.ZeroStrides
				total += s.TotalStrides
			}
			if total == 0 {
				return 0
			}
			return float64(zeros) / float64(total)
		}
		b.ReportMetric(zeroShare(w), "zero-stride-share-base")
		b.ReportMetric(zeroShare(ow), "zero-stride-share-opt")

		pr, err := core.ProfilePass(ow, ow.Train(),
			instrument.Options{Method: instrument.EdgeCheck}, machine.Config{})
		if err != nil {
			b.Fatal(err)
		}
		sr, err := core.MeasureSpeedup(ow, ow.Ref(), pr.Profiles, prefetch.Options{}, machine.Config{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sr.Speedup, "speedup-optimized")
	}
}

// BenchmarkBaselineHardwareRPT compares software profile-guided
// prefetching against a hardware reference-prediction-table stride
// prefetcher (the Related Work's hardware alternative). The paper argues
// software profiling avoids the hardware table's capacity pressure ("the
// hardware tables may overflow and cause useful strides to be thrown
// away"): the bench contrasts an ample table against a tiny one on mcf,
// where entry thrashing degrades the hardware gain while the software
// result is unaffected by the number of static loads.
func BenchmarkBaselineHardwareRPT(b *testing.B) {
	w := workloads.Get("181.mcf")
	for i := 0; i < b.N; i++ {
		clean, err := core.Execute(w.Program(), w, w.Ref(), machine.Config{})
		if err != nil {
			b.Fatal(err)
		}
		speedupWith := func(cfg hwpf.Config) (float64, hwpf.Counters) {
			rpt, err := hwpf.NewScheme("rpt", cfg)
			if err != nil {
				b.Fatal(err)
			}
			hw, err := core.Execute(w.Program(), w, w.Ref(), machine.Config{NewHWPrefetch: func() machine.HWPrefetcher { return rpt }})
			if err != nil {
				b.Fatal(err)
			}
			return float64(clean.Stats.Cycles) / float64(hw.Stats.Cycles), rpt.Counters()
		}
		ample, _ := speedupWith(hwpf.Config{Entries: 64, Ways: 4})
		tiny, tinyTab := speedupWith(hwpf.Config{Entries: 2, Ways: 1})
		b.ReportMetric(ample, "rpt64-mcf-speedup")
		b.ReportMetric(tiny, "rpt2-mcf-speedup")
		b.ReportMetric(float64(tinyTab.Replaced), "rpt2-evictions")

		// Software guided, for reference.
		pr, err := core.ProfilePass(w, w.Train(),
			instrument.Options{Method: instrument.EdgeCheck}, machine.Config{})
		if err != nil {
			b.Fatal(err)
		}
		sr, err := core.MeasureSpeedup(w, w.Ref(), pr.Profiles, prefetch.Options{}, machine.Config{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sr.Speedup, "sw-mcf-speedup")
	}
}

// BenchmarkBaselineStatic compares profile-guided prefetching against the
// profile-blind static induction-pointer prefetching of Stoutchinin et al.:
// the static pass wins on mcf but pays on programs without stride patterns
// (the paper reports <1% or negative gains there).
func BenchmarkBaselineStatic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, name := range []string{"181.mcf", "253.perlbmk"} {
			w := workloads.Get(name)
			clean, err := core.Execute(w.Program(), w, w.Ref(), machine.Config{})
			if err != nil {
				b.Fatal(err)
			}
			st, err := baseline.Apply(w.Program(), baseline.Options{})
			if err != nil {
				b.Fatal(err)
			}
			static, err := core.Execute(st.Prog, w, w.Ref(), machine.Config{})
			if err != nil {
				b.Fatal(err)
			}
			sp := float64(clean.Stats.Cycles) / float64(static.Stats.Cycles)
			if name == "181.mcf" {
				b.ReportMetric(sp, "static-mcf-speedup")
			} else {
				b.ReportMetric(sp, "static-perlbmk-speedup")
			}
		}
	}
}
