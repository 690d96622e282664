package instrument

import (
	"strings"
	"testing"

	"stridepf/internal/cfg"
	"stridepf/internal/ir"
	"stridepf/internal/machine"
	"stridepf/internal/profile"
	"stridepf/internal/stride"
)

const (
	arrBase  = 0x2000_0000 // inner-loop strided array
	leafBase = 0x3000_0000 // out-loop strided data
	lowBase  = 0x4000_0000 // low-trip loop data
)

// testProgram builds:
//
//	leaf(q): two out-loop loads [q+0], [q+8]; returns their sum.
//	main:    outer loop (outerN iters) {
//	             inner loop (innerN iters): loads [p+0] and [p+8], p += 64
//	             call leaf(q); q += 32
//	         }
//	         low-trip loop (4 iters): load [s], s += 8
//
// The inner-loop loads form one equivalent set (same base, control
// equivalent, constant offsets). Inner trip count is innerN >> 128; the
// low-trip loop's is 4 << 128.
func testProgram(outerN, innerN int64) *ir.Program {
	prog := ir.NewProgram()

	lf := ir.NewBuilder("leaf")
	q := lf.Param()
	v0 := lf.Load(q, 0)
	v8 := lf.Load(q, 8)
	lf.Ret(lf.Add(v0.Dst, v8.Dst))
	prog.Add(lf.Finish())

	b := ir.NewBuilder("main")
	ohead := b.Block("ohead")
	obody := b.Block("obody")
	ihead := b.Block("ihead")
	ibody := b.Block("ibody")
	oinc := b.Block("oinc")
	lthead := b.Block("lthead")
	ltbody := b.Block("ltbody")
	exit := b.Block("exit")

	i := b.Const(0)
	no := b.Const(outerN)
	qq := b.Const(leafBase)
	b.Br(ohead)

	b.At(ohead)
	b.CondBr(b.CmpLT(i, no), obody, lthead)

	b.At(obody)
	j := b.MovConst(b.F.NewReg(), 0).Dst
	p := b.MovConst(b.F.NewReg(), arrBase).Dst
	ni := b.Const(innerN)
	b.Br(ihead)

	b.At(ihead)
	b.CondBr(b.CmpLT(j, ni), ibody, oinc)

	b.At(ibody)
	b.Load(p, 0)
	b.Load(p, 8)
	b.AddITo(p, p, 64)
	b.AddITo(j, j, 1)
	b.Br(ihead)

	b.At(oinc)
	b.CallVoid("leaf", qq)
	b.AddITo(qq, qq, 32)
	b.AddITo(i, i, 1)
	b.Br(ohead)

	b.At(lthead)
	k := b.MovConst(b.F.NewReg(), 0).Dst
	s := b.MovConst(b.F.NewReg(), lowBase).Dst
	four := b.Const(4)
	b.Br(ltbody)

	b.At(ltbody)
	b.Load(s, 0)
	b.AddITo(s, s, 8)
	b.AddITo(k, k, 1)
	b.CondBr(b.CmpLT(k, four), ltbody, exit)

	b.At(exit)
	b.Ret(ir.NoReg)
	prog.Add(b.Finish())
	return prog
}

// runInstrumented instruments prog with opts, executes it, and returns the
// result and machine.
func runInstrumented(t *testing.T, prog *ir.Program, opts Options) (*Result, *machine.Machine) {
	t.Helper()
	res, err := Instrument(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(res.Prog, machine.Config{Hooks: res.Hooks()})
	if err != nil {
		t.Fatal(err)
	}
	// Map the data regions so loads return deterministic values.
	for a := uint64(arrBase); a < arrBase+1<<20; a += 1 << 15 {
		m.Mem.Store(a, 1)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return res, m
}

func TestEdgeOnlyProfileAndTripCount(t *testing.T) {
	prog := testProgram(50, 1000)
	res, m := runInstrumented(t, prog, Options{Method: EdgeOnly})

	ep := res.ExtractEdgeProfile(m)
	f := prog.Func("main")
	li := cfg.FindLoops(f, cfg.Dominators(f))

	var innerTC, lowTC float64
	for _, l := range li.Loops {
		tc := ep.TripCount("main", l)
		switch {
		case strings.HasPrefix(l.Header.Name, "ihead"):
			innerTC = tc
		case strings.HasPrefix(l.Header.Name, "ltbody"):
			lowTC = tc
		}
	}
	if innerTC < 999 || innerTC > 1001 {
		t.Errorf("inner trip count = %v, want ~1000", innerTC)
	}
	if lowTC < 3 || lowTC > 5 {
		t.Errorf("low-trip count = %v, want ~4", lowTC)
	}
	if res.Runtime != nil {
		t.Error("EdgeOnly must not create a stride runtime")
	}
}

func TestEdgeProfileMatchesSemantics(t *testing.T) {
	// Edge counts must reflect actual traversals: outer body executes 50
	// times, inner body 50*1000 times.
	prog := testProgram(50, 1000)
	res, m := runInstrumented(t, prog, Options{Method: EdgeOnly})
	ep := res.ExtractEdgeProfile(m)

	f := prog.Func("main")
	var ihead, ibody *ir.Block
	for _, b := range f.Blocks {
		switch {
		case strings.HasPrefix(b.Name, "ihead"):
			ihead = b
		case strings.HasPrefix(b.Name, "ibody"):
			ibody = b
		}
	}
	if ihead == nil || ibody == nil {
		t.Fatal("inner loop blocks not found")
	}
	if got := ep.EdgeCount("main", ihead, ibody); got != 50*1000 {
		t.Errorf("inner head->body count = %d, want 50000", got)
	}
}

func TestNaiveLoopSelectsInLoopOnly(t *testing.T) {
	prog := testProgram(10, 100)
	res, _ := runInstrumented(t, prog, Options{Method: NaiveLoop})

	for _, pl := range res.Profiled {
		if pl.Key.Func == "leaf" {
			t.Errorf("naive-loop profiled out-loop load %v", pl.Key)
		}
		if !pl.InLoop {
			t.Errorf("naive-loop selected out-loop load %v", pl.Key)
		}
	}
	// Both inner loads plus the low-trip load = 3 in-loop loads in main.
	if len(res.Profiled) != 3 {
		t.Errorf("profiled %d loads, want 3", len(res.Profiled))
	}
}

func TestNaiveAllIncludesOutLoop(t *testing.T) {
	prog := testProgram(10, 100)
	res, _ := runInstrumented(t, prog, Options{Method: NaiveAll})

	var leaf int
	for _, pl := range res.Profiled {
		if pl.Key.Func == "leaf" {
			leaf++
			if pl.InLoop {
				t.Error("leaf loads must be out-loop")
			}
		}
	}
	if leaf != 2 {
		t.Errorf("profiled %d leaf loads, want 2", leaf)
	}
	if len(res.Profiled) != 5 {
		t.Errorf("profiled %d loads, want 5", len(res.Profiled))
	}
}

func TestNaiveAllProfilesOutLoopStride(t *testing.T) {
	prog := testProgram(200, 10)
	res, _ := runInstrumented(t, prog, Options{Method: NaiveAll})

	sums := res.StrideSummaries()
	var found bool
	for _, s := range sums {
		if s.Key.Func != "leaf" {
			continue
		}
		found = true
		if len(s.TopStrides) == 0 || s.TopStrides[0].Value != 32 {
			t.Errorf("leaf load top stride = %+v, want 32", s.TopStrides)
		}
	}
	if !found {
		t.Fatal("no leaf summaries collected")
	}
}

func TestEdgeCheckEquivalenceReduction(t *testing.T) {
	prog := testProgram(10, 200)
	res, _ := runInstrumented(t, prog, Options{Method: EdgeCheck})

	// The [p+0]/[p+8] pair reduces to one representative; with the low-trip
	// load that makes 2 profiled loads.
	if len(res.Profiled) != 2 {
		for _, pl := range res.Profiled {
			t.Logf("profiled: %+v", pl)
		}
		t.Errorf("profiled %d loads, want 2 after equivalence reduction", len(res.Profiled))
	}
}

func TestEdgeCheckTripGuard(t *testing.T) {
	prog := testProgram(50, 1000)
	res, _ := runInstrumented(t, prog, Options{Method: EdgeCheck})

	var innerProcessed, lowProcessed int64
	for _, pd := range res.Runtime.Records() {
		sum, _ := res.Runtime.Data(pd.Key), pd
		_ = sum
		top := pd.LFU.Top(1)
		if pd.Processed > 0 && len(top) > 0 && top[0].Value == 64 {
			innerProcessed = pd.Processed
		} else {
			lowProcessed += pd.Processed
		}
	}
	if innerProcessed == 0 {
		t.Error("high-trip loop load was never profiled")
	}
	// The first outer iteration runs before counters accumulate, so a small
	// shortfall from 49*1000 is expected; the guard must block most of
	// nothing-to-gain profiling though.
	if innerProcessed < 40_000 {
		t.Errorf("inner processed = %d, want ~49000", innerProcessed)
	}
	if lowProcessed != 0 {
		t.Errorf("low-trip loop processed %d refs, want 0 (guarded)", lowProcessed)
	}
}

func TestEdgeCheckProfilesFarFewerRefs(t *testing.T) {
	prog := testProgram(30, 500)
	naive, _ := runInstrumented(t, prog, Options{Method: NaiveLoop})
	check, _ := runInstrumented(t, prog, Options{Method: EdgeCheck})

	nProc := naive.Runtime.ProcessedRefs()
	cProc := check.Runtime.ProcessedRefs()
	if cProc >= nProc {
		t.Errorf("edge-check processed %d >= naive-loop %d", cProc, nProc)
	}
	// But the high-trip loop is still covered.
	if cProc < int64(29*500)/2 {
		t.Errorf("edge-check processed only %d refs", cProc)
	}
}

func TestOverheadOrdering(t *testing.T) {
	prog := testProgram(40, 400)
	baseRes, baseM := runInstrumented(t, prog, Options{Method: EdgeOnly})
	_ = baseRes
	_, checkM := runInstrumented(t, prog, Options{Method: EdgeCheck})
	_, nlM := runInstrumented(t, prog, Options{Method: NaiveLoop})
	_, naM := runInstrumented(t, prog, Options{Method: NaiveAll})

	base := baseM.Stats().Cycles
	check := checkM.Stats().Cycles
	nl := nlM.Stats().Cycles
	na := naM.Stats().Cycles
	if !(base < check && check < nl && nl < na) {
		t.Errorf("cycle ordering violated: edge-only=%d edge-check=%d naive-loop=%d naive-all=%d",
			base, check, nl, na)
	}
}

func TestSamplingReducesProcessedRefs(t *testing.T) {
	prog := testProgram(30, 500)
	full, _ := runInstrumented(t, prog, Options{Method: NaiveLoop})
	sampled, _ := runInstrumented(t, prog, Options{
		Method: NaiveLoop,
		Stride: stride.Config{FineInterval: 4},
	})
	f := full.Runtime.ProcessedRefs()
	s := sampled.Runtime.ProcessedRefs()
	if s*3 > f {
		t.Errorf("fine sampling processed %d of %d refs, want ~1/4", s, f)
	}
	// Strides remain recoverable: top stride is 4*64.
	var ok bool
	for _, sum := range sampled.Runtime.Summarize() {
		if len(sum.TopStrides) > 0 && sum.TopStrides[0].Value == 256 && sum.FineInterval == 4 {
			ok = true
		}
	}
	if !ok {
		t.Error("sampled profile lost the scaled stride")
	}
}

func TestTwoPassSelection(t *testing.T) {
	prog := testProgram(50, 1000)
	// Pass 1: edge-only.
	p1, m1 := runInstrumented(t, prog, Options{Method: EdgeOnly})
	edge := p1.ExtractEdgeProfile(m1)

	// Pass 2: stride profiling of loads in high-trip loops only.
	p2, _ := runInstrumented(t, prog, Options{Method: TwoPass, PriorEdge: edge})
	if len(p2.Profiled) != 1 {
		for _, pl := range p2.Profiled {
			t.Logf("profiled: %+v", pl)
		}
		t.Fatalf("two-pass profiled %d loads, want 1 (equivalence-reduced high-trip rep)", len(p2.Profiled))
	}
	pd := p2.Runtime.Records()[0]
	if pd.Processed != 50*1000 {
		t.Errorf("two-pass processed %d refs, want 50000 (unguarded)", pd.Processed)
	}
	top := pd.LFU.Top(1)
	if len(top) == 0 || top[0].Value != 64 {
		t.Errorf("two-pass stride = %v, want 64", top)
	}
}

func TestTwoPassRequiresPrior(t *testing.T) {
	if _, err := Instrument(testProgram(2, 2), Options{Method: TwoPass}); err == nil {
		t.Error("two-pass without prior profile must fail")
	}
}

func TestBlockCheckGuards(t *testing.T) {
	prog := testProgram(50, 1000)
	res, m := runInstrumented(t, prog, Options{Method: BlockCheck})

	var innerProcessed, lowProcessed int64
	for _, pd := range res.Runtime.Records() {
		top := pd.LFU.Top(1)
		if pd.Processed > 0 && len(top) > 0 && top[0].Value == 64 {
			innerProcessed = pd.Processed
		} else {
			lowProcessed += pd.Processed
		}
	}
	if innerProcessed < 40_000 {
		t.Errorf("block-check inner processed = %d, want ~49000", innerProcessed)
	}
	if lowProcessed != 0 {
		t.Errorf("block-check low-trip processed = %d, want 0", lowProcessed)
	}
	freqs := res.ExtractBlockFreqs(m)
	if len(freqs["main"]) == 0 {
		t.Error("no block frequencies extracted")
	}
}

func TestInstrumentedProgramVerifies(t *testing.T) {
	prog := testProgram(5, 10)
	for _, method := range []Method{EdgeOnly, NaiveLoop, NaiveAll, EdgeCheck, BlockCheck} {
		res, err := Instrument(prog, Options{Method: method})
		if err != nil {
			t.Errorf("%v: %v", method, err)
			continue
		}
		if err := ir.VerifyProgram(res.Prog); err != nil {
			t.Errorf("%v: output does not verify: %v", method, err)
		}
	}
}

func TestOriginalProgramUntouched(t *testing.T) {
	prog := testProgram(5, 10)
	before := ir.PrintProgram(prog)
	if _, err := Instrument(prog, Options{Method: EdgeCheck}); err != nil {
		t.Fatal(err)
	}
	if after := ir.PrintProgram(prog); after != before {
		t.Error("instrumentation mutated the input program")
	}
}

func TestEdgeProfileIdenticalAcrossMethods(t *testing.T) {
	// Section 3.2: "The frequency profile is exactly the same as that would
	// be collected in a separate pass."
	prog := testProgram(20, 100)
	r1, m1 := runInstrumented(t, prog, Options{Method: EdgeOnly})
	r2, m2 := runInstrumented(t, prog, Options{Method: EdgeCheck})
	e1 := r1.ExtractEdgeProfile(m1)
	e2 := r2.ExtractEdgeProfile(m2)

	if e1.Len() != e2.Len() {
		t.Fatalf("edge counts differ in size: %d vs %d", e1.Len(), e2.Len())
	}
	for _, e := range e1.Edges() {
		if got := e2.Count(e.Key); got != e.Count {
			t.Errorf("edge %v: %d vs %d", e.Key, e.Count, got)
		}
	}
}

var _ = profile.EdgeKey{} // keep import for helper clarity
