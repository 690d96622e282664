package opt

import (
	"math"
	"testing"
	"testing/quick"

	"stridepf/internal/ir"
	"stridepf/internal/irgen"
	"stridepf/internal/machine"
)

func runProg(t *testing.T, prog *ir.Program) (int64, uint64) {
	t.Helper()
	m, err := machine.New(prog, machine.Config{MaxSteps: 50_000_000})
	if err != nil {
		t.Fatal(err)
	}
	v, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return v, m.Stats().Instrs
}

func single(f *ir.Function) *ir.Program {
	p := ir.NewProgram()
	p.Add(f)
	return p
}

func TestConstantFolding(t *testing.T) {
	b := ir.NewBuilder("main")
	x := b.Const(6)
	y := b.Const(7)
	z := b.Mul(x, y)  // foldable: 42
	w := b.AddI(z, 8) // foldable: 50
	v := b.ShrI(w, 1) // foldable: 25
	b.Ret(v)
	prog := single(b.Finish())

	out, st, err := Run(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Folded < 3 {
		t.Errorf("folded %d, want >= 3", st.Folded)
	}
	got, _ := runProg(t, out)
	if got != 25 {
		t.Errorf("optimised result = %d, want 25", got)
	}
	// The mul/addi/shri chain plus the now-dead consts should be gone.
	if st.Removed == 0 {
		t.Error("dce removed nothing after folding")
	}
}

func TestCopyPropagationHazard(t *testing.T) {
	// rC = mov rA; rA = const 9; use rC — the use must NOT see 9.
	b := ir.NewBuilder("main")
	a := b.Const(5)
	c := b.F.NewReg()
	b.Mov(c, a)
	b.MovConst(a, 9)
	b.Ret(b.Add(c, a)) // 5 + 9 = 14
	prog := single(b.Finish())

	out, _, err := Run(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := runProg(t, out)
	if got != 14 {
		t.Errorf("result = %d, want 14 (copy-prop hazard)", got)
	}
}

func TestCSE(t *testing.T) {
	b := ir.NewBuilder("main")
	p := b.Const(0x4000)
	// Two identical address computations from a non-constant base.
	ld := b.Load(p, 0) // defeat const folding of the adds
	a1 := b.Add(ld.Dst, p)
	a2 := b.Add(ld.Dst, p) // CSE-able
	b.Ret(b.Sub(a1, a2))   // always 0
	prog := single(b.Finish())

	out, st, err := Run(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.CSE == 0 {
		t.Error("CSE found nothing")
	}
	got, _ := runProg(t, out)
	if got != 0 {
		t.Errorf("result = %d, want 0", got)
	}
}

func TestDCEKeepsSideEffects(t *testing.T) {
	b := ir.NewBuilder("main")
	p := b.Const(0x4000)
	v := b.Const(3)
	b.Store(p, 0, v) // has side effects: kept
	b.Load(p, 8)     // dead result but memory op: kept (cache effects)
	dead := b.Mul(v, v)
	_ = dead // pure and unused: removed
	b.Ret(v)
	prog := single(b.Finish())

	out, st, err := Run(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	stats := ir.CollectStats(out)
	if stats.Stores != 1 {
		t.Error("DCE removed a store")
	}
	if stats.Loads != 1 {
		t.Error("DCE removed a load (memory ops must stay)")
	}
	if st.Removed == 0 {
		t.Error("dead mul not removed")
	}
}

// loopWithInvariants builds a loop recomputing an invariant expression and
// re-loading an invariant address every iteration.
func loopWithInvariants() *ir.Program {
	b := ir.NewBuilder("main")
	head := b.Block("head")
	body := b.Block("body")
	exit := b.Block("exit")

	sum := b.Const(0)
	n := b.Const(100)
	base := b.Const(0x4000)
	scale := b.Const(3)
	i := b.Const(0)
	b.Br(head)

	b.At(head)
	b.CondBr(b.CmpLT(i, n), body, exit)

	b.At(body)
	inv := b.Mul(scale, scale) // invariant arithmetic
	cfgw := b.Load(base, 0)    // invariant load, loop is store-free
	b.Mov(sum, b.Add(sum, b.Add(inv, cfgw.Dst)))
	b.AddITo(i, i, 1)
	b.Br(head)

	b.At(exit)
	b.Ret(sum)
	return single(b.Finish())
}

func TestLICMHoistsInvariants(t *testing.T) {
	prog := loopWithInvariants()
	wantRet, baseInstrs := runProg(t, prog)

	out, st, err := Run(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Hoisted < 2 {
		t.Errorf("hoisted %d, want >= 2 (mul and load)", st.Hoisted)
	}
	got, optInstrs := runProg(t, out)
	if got != wantRet {
		t.Fatalf("optimised result = %d, want %d", got, wantRet)
	}
	if optInstrs >= baseInstrs {
		t.Errorf("optimisation did not shrink execution: %d vs %d instrs", optInstrs, baseInstrs)
	}
}

func TestLICMRespectsStores(t *testing.T) {
	// A loop that stores to memory must not have its loads hoisted.
	b := ir.NewBuilder("main")
	head := b.Block("head")
	body := b.Block("body")
	exit := b.Block("exit")

	sum := b.Const(0)
	n := b.Const(10)
	base := b.Const(0x4000)
	i := b.Const(0)
	b.Br(head)

	b.At(head)
	b.CondBr(b.CmpLT(i, n), body, exit)

	b.At(body)
	v := b.Load(base, 0) // reads what the loop wrote last time
	b.Mov(sum, b.Add(sum, v.Dst))
	b.Store(base, 0, b.AddI(v.Dst, 1)) // aliases the load
	b.AddITo(i, i, 1)
	b.Br(head)

	b.At(exit)
	b.Ret(sum)
	prog := single(b.Finish())

	want, _ := runProg(t, prog)
	out, _, err := Run(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := runProg(t, out)
	if got != want {
		t.Fatalf("optimised result = %d, want %d (load hoisted past store?)", got, want)
	}
}

func TestPredicatedDefsNotPropagated(t *testing.T) {
	// (p)? rA = const 9 must not be treated as a known constant afterwards.
	b := ir.NewBuilder("main")
	a := b.Const(5)
	p := b.Const(0) // false predicate: the const is squashed
	in := ir.NewInstr(ir.OpConst)
	in.Dst = a
	in.Imm = 9
	in.Pred = p
	in.ID = b.F.NextInstrID()
	b.B.Instrs = append(b.B.Instrs, in)
	b.Ret(b.AddI(a, 0))
	prog := single(b.Finish())

	want, _ := runProg(t, prog) // 5
	out, _, err := Run(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := runProg(t, out)
	if got != want {
		t.Fatalf("optimised result = %d, want %d", got, want)
	}
}

func TestDifferentialOptimizer(t *testing.T) {
	// Random programs: optimisation must preserve the checksum and never
	// grow the executed instruction count.
	prop := func(seed uint64) bool {
		prog := irgen.Generate(seed, irgen.Config{})
		want, baseInstrs := runProg(t, prog)
		out, _, err := Run(prog, Options{})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		got, optInstrs := runProg(t, out)
		if got != want {
			t.Logf("seed %d: %d != %d", seed, got, want)
			return false
		}
		if optInstrs > baseInstrs {
			t.Logf("seed %d: grew %d -> %d instrs", seed, baseInstrs, optInstrs)
			return false
		}
		return true
	}
	n := 60
	if testing.Short() {
		n = 10
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: n}); err != nil {
		t.Error(err)
	}
}

func TestPassDisabling(t *testing.T) {
	prog := loopWithInvariants()
	out, st, err := Run(prog, Options{Disable: map[string]bool{"licm": true}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Hoisted != 0 {
		t.Error("licm ran despite being disabled")
	}
	if _, _, err := runSafely(t, out); err != nil {
		t.Fatal(err)
	}
}

func runSafely(t *testing.T, prog *ir.Program) (int64, uint64, error) {
	t.Helper()
	m, err := machine.New(prog, machine.Config{MaxSteps: 50_000_000})
	if err != nil {
		return 0, 0, err
	}
	v, err := m.Run()
	return v, m.Stats().Instrs, err
}

func TestOptimizerDeterministic(t *testing.T) {
	// Repeated optimisation of the same program must produce byte-identical
	// listings (profile keys depend on it).
	for seed := uint64(1); seed < 12; seed++ {
		prog := irgen.Generate(seed, irgen.Config{})
		o1, _, err := Run(prog, Options{})
		if err != nil {
			t.Fatal(err)
		}
		o2, _, err := Run(prog, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if ir.PrintProgram(o1) != ir.PrintProgram(o2) {
			t.Fatalf("seed %d: nondeterministic optimisation", seed)
		}
	}
}

// TestFoldsMatchMachine pins evalBinary's and evalImm's claim to mirror the
// machine: every opcode they fold, over edge operands (MinInt64 / -1 and
// MinInt64 % -1, zero divisors, shift counts -1, 63, 64 and 65, MinInt64
// and MaxInt64 on either side), must fold to what the machine computes for
// the same instruction. The machine runs each instruction with its constant
// operands in registers, each read twice so the translator cannot fold it,
// and with a single-use constant right before the instruction, on the right
// and then on the left, which the translator folds into an immediate micro
// where the instruction has one.
func TestFoldsMatchMachine(t *testing.T) {
	edges := []int64{math.MinInt64, math.MinInt64 + 1, -65, -1, 0, 1, 7, 63, 64, 65, math.MaxInt64}
	const base = 0x4000_0000
	// emit appends dst = op(a, b), or dst = op(a, imm) for an immediate form.
	emit := func(bl *ir.Builder, op ir.Opcode, a, b ir.Reg, imm int64) ir.Reg {
		in := ir.NewInstr(op)
		in.Dst, in.Src[0], in.Src[1], in.Imm = bl.F.NewReg(), a, b, imm
		in.ID = bl.F.NextInstrID()
		bl.B.Instrs = append(bl.B.Instrs, in)
		return in.Dst
	}
	type form string
	const (
		registers   form = "registers"
		singleRight form = "single-use right"
		singleLeft  form = "single-use left"
	)
	// run computes op over every pair of edges in form f on a machine and
	// returns the results in pair order.
	run := func(op ir.Opcode, f form, immForm bool) []int64 {
		bl := ir.NewBuilder("main")
		p := bl.Const(base)
		n := 0
		for _, x := range edges {
			for _, y := range edges {
				var r ir.Reg
				switch {
				case immForm:
					a := bl.Const(x)
					r = emit(bl, op, a, ir.NoReg, y)
					if f == registers {
						bl.Xor(a, a)
					}
				case f == singleLeft:
					b := bl.Const(y)
					r = emit(bl, op, bl.Const(x), b, 0)
					bl.Xor(b, b)
				default:
					a, b := bl.Const(x), bl.Const(y)
					r = emit(bl, op, a, b, 0)
					if f == registers {
						bl.Xor(a, b)
					} else {
						bl.Xor(a, a)
					}
				}
				bl.Store(p, int64(8*n), r)
				n++
			}
		}
		bl.Ret(ir.NoReg)
		prog := ir.NewProgram()
		prog.Add(bl.Finish())
		m, err := machine.New(prog, machine.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		got := make([]int64, n)
		for i := range got {
			got[i] = m.Mem.Load(uint64(base + 8*i))
		}
		return got
	}
	check := func(op ir.Opcode, f form, immForm bool, eval func(ir.Opcode, int64, int64) (int64, bool)) {
		got := run(op, f, immForm)
		n := 0
		for _, x := range edges {
			for _, y := range edges {
				want, ok := eval(op, x, y)
				if !ok {
					t.Fatalf("%s does not fold", op)
				}
				if got[n] != want {
					t.Errorf("%s %d, %d (%s): machine %d, folded %d", op, x, y, f, got[n], want)
				}
				n++
			}
		}
	}
	for _, op := range []ir.Opcode{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr,
		ir.OpCmpEQ, ir.OpCmpNE, ir.OpCmpLT, ir.OpCmpLE, ir.OpCmpGT, ir.OpCmpGE} {
		for _, f := range []form{registers, singleRight, singleLeft} {
			check(op, f, false, evalBinary)
		}
	}
	for _, op := range []ir.Opcode{ir.OpAddI, ir.OpShlI, ir.OpShrI, ir.OpAndI} {
		for _, f := range []form{registers, singleRight} {
			check(op, f, true, evalImm)
		}
	}
}
