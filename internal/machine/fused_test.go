package machine

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"stridepf/internal/cache"
	"stridepf/internal/ir"
)

// runBoth executes prog on two fresh machines — the fused translation and
// the exact one, selected through a pair profile — and requires every
// observable to match: result, error identity, full statistics (exact
// instruction and cycle counts), memory fingerprint and per-load counts. It
// also requires each side to have run the translation it asked for: the
// fused side some multi-instruction xinstr, the exact side one profiled
// dispatch per executed instruction.
func runBoth(t *testing.T, prog *ir.Program, cfg Config) (int64, error) {
	t.Helper()
	type outcome struct {
		ret   int64
		err   error
		stats Stats
		fp    uint64
		lc    map[LoadKey]uint64
	}
	run := func(pp *PairProfile) (outcome, *Machine) {
		t.Helper()
		c := cfg
		c.PairProfile = pp
		m, err := New(prog, c)
		if err != nil {
			t.Fatal(err)
		}
		ret, err := m.Run()
		return outcome{ret, err, m.Stats(), m.Mem.Fingerprint(), m.LoadCounts()}, m
	}
	fused, fm := run(nil)
	pp := NewPairProfile()
	ref, _ := run(pp)

	if !fusedSomewhere(fm) {
		t.Error("fused side ran no multi-instruction xinstr")
	}
	// The instruction that crosses the budget is counted but never
	// dispatched, so it is the one instruction the profile misses.
	profiled := ref.stats.Instrs
	if errors.Is(ref.err, ErrMaxSteps) {
		profiled--
	}
	if pp.Total() != profiled {
		t.Errorf("exact side profiled %d instructions, executed %d", pp.Total(), profiled)
	}

	if fused.ret != ref.ret {
		t.Errorf("result: fused=%d reference=%d", fused.ret, ref.ret)
	}
	if (fused.err == nil) != (ref.err == nil) ||
		(fused.err != nil && fused.err.Error() != ref.err.Error()) {
		t.Errorf("error: fused=%v reference=%v", fused.err, ref.err)
	}
	if fused.stats != ref.stats {
		t.Errorf("stats: fused=%+v reference=%+v", fused.stats, ref.stats)
	}
	if fused.fp != ref.fp {
		t.Errorf("memory fingerprint: fused=%#x reference=%#x", fused.fp, ref.fp)
	}
	if len(fused.lc) != len(ref.lc) {
		t.Errorf("load set: fused=%d reference=%d", len(fused.lc), len(ref.lc))
	}
	for k, c := range fused.lc {
		if ref.lc[k] != c {
			t.Errorf("load count %s#%d: fused=%d reference=%d", k.Func, k.ID, c, ref.lc[k])
		}
	}
	return fused.ret, fused.err
}

// fusedSomewhere reports whether any translated block of m has an xinstr
// covering more than one source instruction.
func fusedSomewhere(m *Machine) bool {
	for _, c := range m.codes {
		for _, xb := range c.xb {
			for i := range xb.ins {
				if xb.ins[i].nsrc > 1 {
					return true
				}
			}
		}
	}
	return false
}

// TestFusedMatchesReferenceKernels pins the fused translation against the
// exact one on hand-built kernels covering the fusion rules (compare+branch,
// ALU groups ending in their block's branch, and the constant-folding
// peepholes) between loads, stores, calls and hooks.
func TestFusedMatchesReferenceKernels(t *testing.T) {
	t.Run("throughput-shape", func(t *testing.T) {
		// The BenchmarkMachineThroughput workload in miniature: exercises
		// xCmpBr on a less-than and on an equality with a const-fed
		// operand, a load then a store, xALU groups ending in a branch and
		// the Sub/Mul/And const folds.
		ret, err := runBoth(t, throughputProgram(500, 64), Config{})
		if err != nil {
			t.Fatal(err)
		}
		if ret == 0 {
			t.Error("kernel computed nothing")
		}
	})

	t.Run("div-rem-shifts", func(t *testing.T) {
		// Division by a zero register, Shl/Shr with register and folded
		// constant shift amounts, and a const too multi-use to fold.
		bl := ir.NewBuilder("main")
		z := bl.Const(0)
		x := bl.Const(12345)
		q := bl.Div(x, z) // defined 0
		r := bl.Rem(x, z) // defined 0
		seven := bl.Const(7)
		a := bl.Shl(x, seven)
		b := bl.Shr(x, seven) // seven is read twice: must not fold
		c := bl.Shl(x, bl.Const(65))
		d := bl.Shr(x, bl.Const(3))
		s := bl.Add(bl.Add(q, r), bl.Add(a, b))
		bl.Ret(bl.Add(s, bl.Add(c, d)))
		prog := ir.NewProgram()
		prog.Add(bl.Finish())

		ret, err := runBoth(t, prog, Config{})
		if err != nil {
			t.Fatal(err)
		}
		want := int64(12345<<7) + int64(12345>>7) + int64(12345<<(65&63)) + int64(12345>>3)
		if ret != want {
			t.Errorf("ret = %d, want %d", ret, want)
		}
	})

	t.Run("const-on-left-compare", func(t *testing.T) {
		// CmpLT(const, x) with a single-use const on the left of the
		// compare+branch; both branch outcomes are taken.
		for _, lim := range []int64{5, 50} {
			bl := ir.NewBuilder("main")
			lo := bl.Block("lo")
			hi := bl.Block("hi")
			x := bl.Const(lim)
			bl.CondBr(bl.CmpLT(bl.Const(10), x), hi, lo)
			bl.At(hi)
			bl.Ret(bl.Const(1))
			bl.At(lo)
			bl.Ret(bl.Const(2))
			prog := ir.NewProgram()
			prog.Add(bl.Finish())

			ret, err := runBoth(t, prog, Config{})
			if err != nil {
				t.Fatal(err)
			}
			want := int64(2)
			if 10 < lim {
				want = 1
			}
			if ret != want {
				t.Errorf("lim=%d: ret = %d, want %d", lim, ret, want)
			}
		}
	})

	t.Run("cross-block-const", func(t *testing.T) {
		// A const consumed in a different block is not adjacent to its
		// reader and must keep its register write.
		bl := ir.NewBuilder("main")
		next := bl.Block("next")
		k := bl.Const(77)
		bl.Br(next)
		bl.At(next)
		bl.Ret(bl.Add(k, bl.Const(1)))
		prog := ir.NewProgram()
		prog.Add(bl.Finish())

		ret, err := runBoth(t, prog, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if ret != 78 {
			t.Errorf("ret = %d, want 78", ret)
		}
	})

	t.Run("branch-shapes", func(t *testing.T) {
		// branchShapesProgram's conditional branch ends a non-compare ALU
		// run and its jump block is only a branch; no workload forms either.
		ret, err := runBoth(t, branchShapesProgram(), Config{})
		if err != nil {
			t.Fatal(err)
		}
		var want int64
		for i := int64(0); ; i++ {
			f := i < 50
			want += want ^ i
			if !f {
				break
			}
		}
		if ret != want {
			t.Errorf("ret = %d, want %d", ret, want)
		}
		m, err := New(branchShapesProgram(), Config{})
		if err != nil {
			t.Fatal(err)
		}
		c := m.codes["main"]
		m.translateCode(c)
		head, jump := c.xb[1].ins, c.xb[2].ins
		if x := head[len(head)-1]; x.kind != xALU || x.nm == 0 || x.t1 < 0 {
			t.Errorf("head ends in %+v, want a conditional branch ending an ALU group", x)
		}
		if len(jump) != 1 || jump[0].kind != xALU || jump[0].nm != 0 || jump[0].t0 != 1 {
			t.Errorf("jump block translates to %+v, want one branch of zero micros", jump)
		}
	})

	t.Run("calls-and-hooks", func(t *testing.T) {
		// Nested calls and hooks flush/reload the fused loop's local
		// counters; a hook that charges cycles must land exactly.
		cal := ir.NewBuilder("callee")
		pa := cal.Param()
		cal.Hook(9, pa)
		cal.Ret(cal.Mul(pa, pa))
		bl := ir.NewBuilder("main")
		s := bl.Const(0)
		for k := int64(1); k <= 3; k++ {
			c := bl.Call("callee", bl.Const(k))
			bl.Mov(s, bl.Add(s, c.Dst))
		}
		bl.Ret(s)
		prog := ir.NewProgram()
		prog.Add(bl.Finish())
		prog.Add(cal.Finish())

		hooks := map[int64]HookFunc{9: func(m *Machine, args []int64) {
			m.AddCycles(uint64(args[0]))
		}}
		ret, err := runBoth(t, prog, Config{Hooks: hooks})
		if err != nil {
			t.Fatal(err)
		}
		if ret != 1+4+9 {
			t.Errorf("ret = %d, want 14", ret)
		}
	})
}

// TestCompareSemantics pins each compare's truth table (cmpMasks) against
// Go's own operator on every operand pair drawn from MinInt64, -1, 0, 1 and
// MaxInt64, in both places a compare runs: feeding the conditional branch
// on its result (xCmpBr in the fused translation), and inside an ALU group
// whose next micro reads the flag (uCmp). Each shape runs on the fused
// translation and on the exact one. The two share the truth tables, so the
// fused-vs-exact differential cannot catch a wrong bit; this test can.
func TestCompareSemantics(t *testing.T) {
	vals := []int64{math.MinInt64, -1, 0, 1, math.MaxInt64}
	ops := []struct {
		name string
		cmp  func(*ir.Builder, ir.Reg, ir.Reg) ir.Reg
		want func(a, b int64) bool
	}{
		{"cmpeq", (*ir.Builder).CmpEQ, func(a, b int64) bool { return a == b }},
		{"cmpne", (*ir.Builder).CmpNE, func(a, b int64) bool { return a != b }},
		{"cmplt", (*ir.Builder).CmpLT, func(a, b int64) bool { return a < b }},
		{"cmple", (*ir.Builder).CmpLE, func(a, b int64) bool { return a <= b }},
		{"cmpgt", (*ir.Builder).CmpGT, func(a, b int64) bool { return a > b }},
		{"cmpge", (*ir.Builder).CmpGE, func(a, b int64) bool { return a >= b }},
	}
	shapes := []struct {
		name string
		// build emits what follows the compare whose flag is f; the program
		// must return ret(flag) for the flag Go's operator gives (the
		// branch returns flag+10 when taken, flag+20 when not).
		build func(bl *ir.Builder, f ir.Reg)
		ret   func(flag int64) int64
		// formed reports whether x is where the fused translation put the
		// compare.
		formed func(x xinstr) bool
	}{
		{"branch", func(bl *ir.Builder, f ir.Reg) {
			yes, no := bl.Block("yes"), bl.Block("no")
			bl.CondBr(f, yes, no)
			bl.At(yes)
			bl.Ret(bl.AddI(f, 10))
			bl.At(no)
			bl.Ret(bl.AddI(f, 20))
		}, func(flag int64) int64 { return 20 - 9*flag }, func(x xinstr) bool { return x.kind == xCmpBr }},
		{"group", func(bl *ir.Builder, f ir.Reg) {
			bl.Ret(bl.AddI(f, 10))
		}, func(flag int64) int64 { return 10 + flag }, func(x xinstr) bool {
			return x.kind == xALU && x.nm == 4 && x.mi[2].kind == uCmp && x.mi[3].kind == uAddI
		}},
	}
	for _, op := range ops {
		for _, sh := range shapes {
			for _, a := range vals {
				for _, b := range vals {
					bl := ir.NewBuilder("main")
					sh.build(bl, op.cmp(bl, bl.Const(a), bl.Const(b)))
					prog := ir.NewProgram()
					prog.Add(bl.Finish())
					want := sh.ret(b2i(op.want(a, b)))
					for _, exact := range []bool{false, true} {
						var cfg Config
						if exact {
							cfg.PairProfile = NewPairProfile()
						}
						m, err := New(prog, cfg)
						if err != nil {
							t.Fatal(err)
						}
						got, err := m.Run()
						if err != nil {
							t.Fatal(err)
						}
						if got != want {
							t.Errorf("%s %s %d, %d (exact %v): returned %d, want %d", sh.name, op.name, a, b, exact, got, want)
						}
						if ins := m.codes["main"].xb[0].ins; !exact && !slices.ContainsFunc(ins, sh.formed) {
							t.Errorf("%s %s: fused entry block %+v", sh.name, op.name, ins)
						}
					}
				}
			}
		}
	}
}

// branchShapesProgram loops 51 times through a head block that computes
// its loop flag before a non-compare ALU run and branches on it after the
// run, and a jump block that is only a branch back to the head.
func branchShapesProgram() *ir.Program {
	bl := ir.NewBuilder("main")
	head, jump, exit := bl.Block("head"), bl.Block("jump"), bl.Block("exit")
	n := bl.Const(50)
	i := bl.Const(0)
	acc := bl.Const(0)
	bl.Br(head)
	bl.At(head)
	f := bl.CmpLT(i, n)
	bl.Mov(acc, bl.Add(acc, bl.Xor(acc, i)))
	bl.AddITo(i, i, 1)
	bl.CondBr(f, jump, exit)
	bl.At(jump)
	bl.Br(head)
	bl.At(exit)
	bl.Ret(acc)
	prog := ir.NewProgram()
	prog.Add(bl.Finish())
	return prog
}

// TestFusedTranslationShape pins the fused translation as a function of
// the program alone: a machine with a hardware prefetcher and one with a
// lane of its own hierarchy translate each program exactly as a bare
// machine does. In every translation each block's xinstrs cover its source
// instructions in order, and each xinstr's cost is the sum of the fixed
// costs of the instructions it covers. In every translation, each block's
// exact translation and a pair-profiled machine's traced translation too,
// exactly one xinstr per block transfers control (checkTransfer).
func TestFusedTranslationShape(t *testing.T) {
	small := cache.ItaniumConfig()
	small.MemLatency = 200
	hooks := map[int64]HookFunc{7: func(*Machine, []int64) {}}
	machines := []struct {
		name string
		cfg  Config
	}{
		{"bare", Config{}},
		{"hw-prefetcher", Config{NewHWPrefetch: func() HWPrefetcher { return nopPrefetcher{} }}},
		{"own-hierarchy-lane", Config{Lanes: []Lane{{Hierarchy: small, Hooks: hooks}}}},
		{"pair-profiled", Config{PairProfile: NewPairProfile()}},
	}
	type shape struct {
		kind xkind
		nsrc uint8
		cost uint32
	}
	for _, tc := range []struct {
		name string
		prog func() *ir.Program
	}{
		{"throughput-shape", func() *ir.Program { return throughputProgram(500, 64) }},
		{"hooked-sum", func() *ir.Program { return hookedSumProgram(true) }},
		{"branch-shapes", branchShapesProgram},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var want map[string][][]shape
			for _, mc := range machines {
				mc.cfg.Hooks = hooks
				m, err := New(tc.prog(), mc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if (m.pf != nil) != (mc.name == "hw-prefetcher") || (m.fan != nil) != (mc.name == "own-hierarchy-lane") {
					t.Fatalf("%s: prefetcher %v, own-hierarchy lanes %d", mc.name, m.pf, len(m.fan))
				}
				traced := m.pairs != nil
				got := map[string][][]shape{}
				for name, c := range m.codes {
					m.translateCode(c)
					for bi, xb := range c.xb {
						where := fmt.Sprintf("%s: %s block %d", mc.name, name, bi)
						checkTransfer(t, where, c, xb)
						checkTransfer(t, where+" (exact)", c, m.exactTwin(c, xb))
						if traced {
							continue
						}
						blk := c.blocks[bi]
						var shapes []shape
						next := int32(0)
						for _, x := range xb.ins {
							if x.src != next {
								t.Errorf("%s: xinstr at %d starts at %d", where, next, x.src)
							}
							next = x.src + int32(x.nsrc)
							var cost uint64
							for _, d := range blk[x.src:next] {
								cost += OpCost(d.op)
							}
							if uint64(x.cost) != cost {
								t.Errorf("%s: xinstr at %d costs %d, its instructions %d", where, x.src, x.cost, cost)
							}
							shapes = append(shapes, shape{x.kind, x.nsrc, x.cost})
						}
						if int(next) != len(blk) {
							t.Errorf("%s: xinstrs cover %d of %d instructions", where, next, len(blk))
						}
						got[name] = append(got[name], shapes)
					}
				}
				if traced {
					continue
				}
				if want == nil {
					want = got
				} else if !reflect.DeepEqual(got, want) {
					t.Errorf("%s translates to %+v, bare machine to %+v", mc.name, got, want)
				}
			}
		})
	}
}

// checkTransfer requires exactly one xinstr of xb to transfer control: the
// last, which must be an xALU with a successor, an xCmpBr or an xRet. A
// branch must be linked to its targets' translations, and no other xinstr
// may be linked (an xTrace's t0 is zero, not a target).
func checkTransfer(t *testing.T, where string, c *code, xb *xblock) {
	t.Helper()
	if len(xb.ins) == 0 {
		t.Errorf("%s: empty translation", where)
	}
	for i := range xb.ins {
		x := &xb.ins[i]
		branch := x.kind == xCmpBr || x.kind == xALU && x.t0 >= 0
		if transfers := branch || x.kind == xRet; transfers != (i == len(xb.ins)-1) {
			t.Errorf("%s: xinstr %d of %d (kind %d) transfers control: %v", where, i, len(xb.ins), x.kind, transfers)
		}
		var xb0, xb1 *xblock
		if branch {
			xb0 = c.xb[x.t0]
			if x.t1 >= 0 {
				xb1 = c.xb[x.t1]
			} else if x.kind == xCmpBr {
				t.Errorf("%s: xCmpBr %d has no false target", where, i)
			}
		}
		if x.xb0 != xb0 || x.xb1 != xb1 {
			t.Errorf("%s: xinstr %d (kind %d) links %p, %p, want %p, %p", where, i, x.kind, x.xb0, x.xb1, xb0, xb1)
		}
	}
}

// TestFusedMaxStepsExact requires the fused translation to deliver
// ErrMaxSteps on exactly the same instruction as the exact translation, for
// budgets landing on every point of a block — including mid-xinstr, where
// the step loop must rewind into the exact translation rather than overrun,
// a budget shorter than the entry block, and a budget that runs out after a
// nested call returned.
func TestFusedMaxStepsExact(t *testing.T) {
	loop := func() *ir.Program {
		bl := ir.NewBuilder("main")
		head := bl.Block("head")
		body := bl.Block("body")
		exit := bl.Block("exit")
		n := bl.Const(100)
		i := bl.Const(0)
		acc := bl.Const(0)
		bl.Br(head)
		bl.At(head)
		bl.CondBr(bl.CmpLT(i, n), body, exit)
		bl.At(body)
		bl.Mov(acc, bl.Add(acc, bl.Xor(acc, i)))
		bl.AddITo(i, i, 1)
		bl.Br(head)
		bl.At(exit)
		bl.Ret(acc)
		prog := ir.NewProgram()
		prog.Add(bl.Finish())
		return prog
	}
	for budget := uint64(1); budget <= 40; budget++ {
		_, err := runBoth(t, loop(), Config{MaxSteps: budget})
		if !errors.Is(err, ErrMaxSteps) {
			t.Fatalf("loop, budget %d: err = %v, want ErrMaxSteps", budget, err)
		}
	}

	// main: const, call (callee: addi, ret), five adds, ret — ten
	// instructions, the last seven in the caller's block after the call.
	call := func() *ir.Program {
		cal := ir.NewBuilder("callee")
		cal.Ret(cal.AddI(cal.Param(), 1))
		bl := ir.NewBuilder("main")
		x := bl.Call("callee", bl.Const(3)).Dst
		acc := x
		for k := 0; k < 5; k++ {
			acc = bl.Add(acc, x)
		}
		bl.Ret(acc)
		prog := ir.NewProgram()
		prog.Add(bl.Finish())
		prog.Add(cal.Finish())
		return prog
	}
	for budget := uint64(1); budget <= 12; budget++ {
		_, err := runBoth(t, call(), Config{MaxSteps: budget})
		if want := budget < 10; errors.Is(err, ErrMaxSteps) != want {
			t.Errorf("call, budget %d: err = %v, want ErrMaxSteps %v", budget, err, want)
		}
	}
}

// TestPairProfileCountsReferenceStream checks the profile pass that
// proposes superinstruction candidates: pair counts come from the
// unfused instruction stream, the total matches the executed instruction
// count, and the dominant pair of a compare-driven loop is compare+branch.
func TestPairProfileCountsReferenceStream(t *testing.T) {
	bl := ir.NewBuilder("main")
	head := bl.Block("head")
	body := bl.Block("body")
	exit := bl.Block("exit")
	n := bl.Const(64)
	i := bl.Const(0)
	bl.Br(head)
	bl.At(head)
	bl.CondBr(bl.CmpLT(i, n), body, exit)
	bl.At(body)
	bl.AddITo(i, i, 1)
	bl.Br(head)
	bl.At(exit)
	bl.Ret(i)
	prog := ir.NewProgram()
	prog.Add(bl.Finish())

	pp := NewPairProfile()
	m, err := New(prog, Config{PairProfile: pp})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := pp.Total(), m.Stats().Instrs; got != want {
		t.Errorf("profile total = %d, executed instructions = %d", got, want)
	}
	top := pp.Top(1)
	if len(top) != 1 || top[0].Prev != ir.OpCmpLT || top[0].Next != ir.OpCondBr {
		t.Errorf("top pair = %+v, want CmpLT->CondBr", top)
	}
}
