package prefetch

import (
	"testing"

	"stridepf/internal/instrument"
	"stridepf/internal/ir"
	"stridepf/internal/lfu"
	"stridepf/internal/machine"
	"stridepf/internal/profile"
	"stridepf/internal/stride"
)

// pointerTableProgram builds the indirect-prefetching scenario: a loop that
// walks a pointer array (SSST, stride 8) and dereferences each pointer; the
// pointees are scattered, so the dependent load has no stride pattern.
//
//	for (i = 0; i < n; i++) { q = tbl[i]; sum += *q }  (xN passes)
func pointerTableProgram() *ir.Program {
	b := ir.NewBuilder("main")
	ohead := b.Block("ohead")
	obody := b.Block("obody")
	head := b.Block("head")
	body := b.Block("body")
	oinc := b.Block("oinc")
	exit := b.Block("exit")

	sum := b.Const(0)
	passes := b.Load(b.Const(0x2010), 0).Dst
	pi := b.Const(0)
	b.Br(ohead)

	b.At(ohead)
	b.CondBr(b.CmpLT(pi, passes), obody, exit)

	b.At(obody)
	tbl := b.F.NewReg()
	b.LoadTo(tbl, b.Const(0x2000), 0)
	n := b.Load(b.Const(0x2008), 0).Dst
	i := b.MovConst(b.F.NewReg(), 0).Dst
	b.Br(head)

	b.At(head)
	b.CondBr(b.CmpLT(i, n), body, oinc)

	b.At(body)
	q := b.Load(tbl, 0)   // SSST pointer load (stride 8)
	v := b.Load(q.Dst, 0) // dependent load: scattered targets
	b.Mov(sum, b.Add(sum, v.Dst))
	b.AddITo(tbl, tbl, 8)
	b.AddITo(i, i, 1)
	b.Br(head)

	b.At(oinc)
	b.AddITo(pi, pi, 1)
	b.Br(ohead)

	b.At(exit)
	b.Ret(sum)
	prog := ir.NewProgram()
	prog.Add(b.Finish())
	return prog
}

// setupPointerTable builds n pointers to widely scattered 8-byte targets.
func setupPointerTable(m *machine.Machine, n int) {
	rng := uint64(0x1234567)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	targets := make([]uint64, n)
	region := m.Heap.Alloc(int64(n) * 512)
	for i := range targets {
		targets[i] = region + (next()%uint64(n))*512
		m.Mem.Store(targets[i], int64(i%91))
	}
	tbl := m.Heap.Alloc(int64(n) * 8)
	for i, t := range targets {
		m.Mem.Store(tbl+uint64(i)*8, int64(t))
	}
	m.Mem.Store(0x2000, int64(tbl))
	m.Mem.Store(0x2008, int64(n))
	m.Mem.Store(0x2010, 3)
}

// runPointerTable profiles the program, applies feedback with the given
// options, and returns (cycles without prefetch, cycles with, result).
func runPointerTable(t *testing.T, opts Options) (uint64, uint64, *Result) {
	t.Helper()
	prog := pointerTableProgram()

	inst, err := instrument.Instrument(prog, instrument.Options{Method: instrument.EdgeCheck})
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(inst.Prog, machine.Config{Hooks: inst.Hooks()})
	if err != nil {
		t.Fatal(err)
	}
	setupPointerTable(m, 6000)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	prof := &profile.Combined{
		Edge:   inst.ExtractEdgeProfile(m),
		Stride: profile.NewStrideProfile(inst.StrideSummaries()),
	}

	res, err := Apply(prog, prof, opts)
	if err != nil {
		t.Fatal(err)
	}

	run := func(p *ir.Program) uint64 {
		mm, err := machine.New(p, machine.Config{})
		if err != nil {
			t.Fatal(err)
		}
		setupPointerTable(mm, 6000)
		if _, err := mm.Run(); err != nil {
			t.Fatal(err)
		}
		return mm.Stats().Cycles
	}
	return run(prog), run(res.Prog), res
}

func TestIndirectPrefetchingSpeedsUpDependentLoads(t *testing.T) {
	base, without, plain := runPointerTable(t, Options{})
	if plain.IndirectInserted != 0 {
		t.Fatal("indirect prefetches inserted without the option")
	}
	_, with, indirect := runPointerTable(t, Options{EnableIndirect: true})
	if indirect.IndirectInserted == 0 {
		t.Fatal("EnableIndirect inserted nothing")
	}
	// The dependent load dominates the runtime; stride prefetching alone
	// only covers the pointer array, indirect prefetching covers the
	// targets too.
	gainPlain := float64(base) / float64(without)
	gainInd := float64(base) / float64(with)
	if gainInd <= gainPlain+0.03 {
		t.Errorf("indirect gain %.3f not better than plain %.3f", gainInd, gainPlain)
	}
}

func TestIndirectPrefetchOutputVerifies(t *testing.T) {
	_, _, res := runPointerTable(t, Options{EnableIndirect: true})
	if err := ir.VerifyProgram(res.Prog); err != nil {
		t.Fatal(err)
	}
	// The inserted speculative load must use the OpSpecLoad opcode.
	spec := 0
	res.Prog.Func("main").Instrs(func(_ *ir.Block, _ int, in *ir.Instr) {
		if in.Op == ir.OpSpecLoad {
			spec++
		}
	})
	if spec != res.IndirectInserted {
		t.Errorf("specloads = %d, indirect prefetches = %d", spec, res.IndirectInserted)
	}
}

func TestRefDistanceVeto(t *testing.T) {
	// Fabricate a summary with a huge inter-reference distance; the veto
	// must filter it even though it classifies SSST.
	prog := walkerProgram()
	prof := walkerProfiles(prog, SSST)
	sums := prof.Stride.Summaries()
	for i := range sums {
		sums[i].AvgRefDistance = 50_000
	}
	prof.Stride = profile.NewStrideProfile(sums)

	res, err := Apply(prog, prof, Options{MaxRefDistance: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if got := countOps(res.Prog.Func("main"), ir.OpPrefetch); got != 0 {
		t.Errorf("%d prefetches inserted despite ref-distance veto", got)
	}
	var vetoed bool
	for _, d := range res.Decisions {
		if d.FilteredBy == "ref-distance" {
			vetoed = true
		}
	}
	if !vetoed {
		t.Error("no ref-distance decision recorded")
	}

	// Below the threshold the prefetch goes in as usual.
	res, err = Apply(prog, prof, Options{MaxRefDistance: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	if got := countOps(res.Prog.Func("main"), ir.OpPrefetch); got == 0 {
		t.Error("prefetch missing when distance is under the threshold")
	}
}

func TestRefDistanceProfiling(t *testing.T) {
	// End-to-end: the runtime measures inter-reference distances when
	// enabled.
	rt := stride.NewRuntime(stride.Config{RefDistance: true})
	rt.AddLoad(machine.LoadKey{Func: "f", ID: 1})
	pd := rt.Data(machine.LoadKey{Func: "f", ID: 1})
	// The load is referenced every 100 memory references.
	for g := int64(100); g <= 1000; g += 100 {
		rt.RecordRefDistance(pd, g)
		rt.Profile(pd, g*64)
	}
	if got := pd.AvgRefDistance(); got != 100 {
		t.Errorf("AvgRefDistance = %v, want 100", got)
	}
	sums := rt.Summarize()
	if sums[0].AvgRefDistance != 100 {
		t.Errorf("summary AvgRefDistance = %v, want 100", sums[0].AvgRefDistance)
	}
}

func TestOutLoopDynamicPrefetching(t *testing.T) {
	prog := walkerProgram()
	prof := walkerProfiles(prog, PMST)

	// Give the out-loop leaf load a phased multi-stride profile and a call
	// count that passes the frequency filter.
	leaf := prog.Func("leaf")
	var leafLoad int
	leaf.Instrs(func(_ *ir.Block, _ int, in *ir.Instr) {
		if in.Op == ir.OpLoad {
			leafLoad = in.ID
		}
	})
	sums := prof.Stride.Summaries()
	sums = append(sums, summary(machine.LoadKey{Func: "leaf", ID: leafLoad},
		1000, 500,
		lfu.Entry{Value: 64, Freq: 350}, lfu.Entry{Value: 96, Freq: 330}))
	prof.Stride = profile.NewStrideProfile(sums)
	prof.Edge.SetEntryCount("leaf", 10_000)

	// Without the option: out-loop PMST is not prefetched (Section 2.3).
	res, err := Apply(prog, prof, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := countOps(res.Prog.Func("leaf"), ir.OpPrefetch); got != 0 {
		t.Errorf("out-loop PMST prefetched without OutLoopDynamic: %d", got)
	}
	var filtered bool
	for _, d := range res.Decisions {
		if d.Key.Func == "leaf" && d.FilteredBy == "out-loop-PMST" {
			filtered = true
		}
	}
	if !filtered {
		t.Error("out-loop PMST not recorded as filtered")
	}

	// With the option: the static-slot dynamic sequence goes in.
	res, err = Apply(prog, prof, Options{OutLoopDynamic: true})
	if err != nil {
		t.Fatal(err)
	}
	lf := res.Prog.Func("leaf")
	if got := countOps(lf, ir.OpPrefetch); got != 1 {
		t.Fatalf("OutLoopDynamic prefetches = %d, want 1", got)
	}
	// The sequence must read and write the static slot region.
	var slotLoad, slotStore bool
	lf.Instrs(func(_ *ir.Block, _ int, in *ir.Instr) {
		if in.Imm >= int64(SlotBase) && in.Imm < int64(SlotBase)+4096 {
			if in.Op == ir.OpLoad {
				slotLoad = true
			}
			if in.Op == ir.OpStore {
				slotStore = true
			}
		}
	})
	if !slotLoad || !slotStore {
		t.Error("static slot load/store missing from dynamic sequence")
	}
	if err := ir.VerifyProgram(res.Prog); err != nil {
		t.Fatal(err)
	}
}
