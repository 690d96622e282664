package machine

import (
	"errors"
	"testing"

	"stridepf/internal/ir"
)

// runBoth executes prog on two fresh machines — the fused translation and
// the exact one, selected through a pair profile — and requires every
// observable to match: result, error identity, full statistics (exact
// instruction and cycle counts), memory fingerprint and per-load counts. It
// also requires each side to have run the translation it asked for: the
// fused side some multi-instruction xinstr, the exact side one profiled
// dispatch per executed instruction.
func runBoth(t *testing.T, prog *ir.Program, cfg Config, hooks map[int64]HookFunc) (int64, error) {
	t.Helper()
	type outcome struct {
		ret   int64
		err   error
		stats Stats
		fp    uint64
		lc    map[LoadKey]uint64
	}
	run := func(opts ...Option) (outcome, *Machine) {
		t.Helper()
		m, err := New(prog, append([]Option{WithConfig(cfg)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		for id, fn := range hooks {
			m.Register(id, fn)
		}
		ret, err := m.Run()
		return outcome{ret, err, m.Stats(), m.Mem.Fingerprint(), m.LoadCounts()}, m
	}
	fused, fm := run()
	pp := NewPairProfile()
	ref, _ := run(WithPairProfile(pp))

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
// exact one on hand-built kernels covering the fusion rules:
// compare+branch, load+store, ALU groups with folded branches, and the
// constant-folding peepholes.
func TestFusedMatchesReferenceKernels(t *testing.T) {
	t.Run("throughput-shape", func(t *testing.T) {
		// The BenchmarkMachineThroughput workload in miniature: exercises
		// xLtBr, xLoadStore, xALU groups, xALUBr, the CmpEQ-immediate
		// triple and the Sub/Mul/And const folds.
		const nodes = 64
		bl := ir.NewBuilder("main")
		head := bl.Block("head")
		body := bl.Block("body")
		even := bl.Block("even")
		odd := bl.Block("odd")
		tail := bl.Block("tail")
		exit := bl.Block("exit")
		n := bl.Const(500)
		i := bl.Const(0)
		base := bl.Const(0x4000_0000)
		p := bl.Const(0x4000_0000)
		acc := bl.Const(0)
		bl.Br(head)
		bl.At(head)
		bl.CondBr(bl.CmpLT(i, n), body, exit)
		bl.At(body)
		v := bl.Load(p, 0)
		bl.Store(p, 8, acc)
		bl.Mov(acc, bl.Add(acc, bl.Xor(v.Dst, i)))
		parity := bl.And(i, bl.Const(1))
		bl.CondBr(bl.CmpEQ(parity, bl.Const(0)), even, odd)
		bl.At(even)
		bl.Mov(acc, bl.Add(acc, bl.Const(3)))
		bl.Br(tail)
		bl.At(odd)
		bl.Mov(acc, bl.Sub(acc, bl.Const(1)))
		bl.Br(tail)
		bl.At(tail)
		bl.Mov(p, bl.Add(base, bl.Mul(bl.And(v.Dst, bl.Const(nodes-1)), bl.Const(64))))
		bl.AddITo(i, i, 1)
		bl.Br(head)
		bl.At(exit)
		bl.Ret(acc)
		prog := ir.NewProgram()
		prog.Add(bl.Finish())

		ret, err := runBoth(t, prog, Config{}, nil)
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

		ret, err := runBoth(t, prog, Config{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := int64(12345<<7) + int64(12345>>7) + int64(12345<<(65&63)) + int64(12345>>3)
		if ret != want {
			t.Errorf("ret = %d, want %d", ret, want)
		}
	})

	t.Run("const-on-left-compare", func(t *testing.T) {
		// CmpLT(const, x) with a single-use const folds with the relation
		// reversed; both branch outcomes are taken.
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

			ret, err := runBoth(t, prog, Config{}, nil)
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

		ret, err := runBoth(t, prog, Config{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ret != 78 {
			t.Errorf("ret = %d, want 78", ret)
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
		ret, err := runBoth(t, prog, Config{}, hooks)
		if err != nil {
			t.Fatal(err)
		}
		if ret != 1+4+9 {
			t.Errorf("ret = %d, want 14", ret)
		}
	})
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
		_, err := runBoth(t, loop(), Config{MaxSteps: budget}, nil)
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
		_, err := runBoth(t, call(), Config{MaxSteps: budget}, nil)
		if want := budget < 10; errors.Is(err, ErrMaxSteps) != want {
			t.Errorf("call, budget %d: err = %v, want ErrMaxSteps %v", budget, err, want)
		}
	}
}

// TestRegisterMidRunNextRunContract pins the contract documented on
// Register: a Register call made while a Run is in progress has no effect
// on the current run — every subsequent hook invocation still calls the
// binding resolveHooks installed at Run start — and takes effect at the
// next Run, on both the fused and the exact translation.
func TestRegisterMidRunNextRunContract(t *testing.T) {
	build := func() *ir.Program {
		bl := ir.NewBuilder("main")
		second := bl.Block("second")
		bl.Hook(5)
		bl.Br(second)
		bl.At(second)
		bl.Hook(5)
		bl.Ret(ir.NoReg)
		prog := ir.NewProgram()
		prog.Add(bl.Finish())
		return prog
	}
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"fused", nil},
		{"reference", []Option{WithPairProfile(NewPairProfile())}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := New(build(), tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			var calls []string
			m.Register(5, func(mm *Machine, _ []int64) {
				calls = append(calls, "old")
				// Rebinding mid-run: must not affect the rest of this run,
				// even though the block containing the second hook site has
				// not been entered yet.
				mm.Register(5, func(*Machine, []int64) {
					calls = append(calls, "new")
				})
			})
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if len(calls) != 2 || calls[0] != "old" || calls[1] != "old" {
				t.Fatalf("first run calls = %v, want [old old] (mid-run Register must defer to next Run)", calls)
			}
			calls = nil
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
			// The first "old" invocation re-registers "new" mid-run again,
			// but this run started with "new" bound at both sites.
			if len(calls) != 2 || calls[0] != "new" || calls[1] != "new" {
				t.Fatalf("second run calls = %v, want [new new] (Register takes effect at next Run)", calls)
			}
		})
	}
}

// TestPairProfileCountsReferenceStream checks the profile pass that the
// superinstruction set was selected from: pair counts come from the
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
	m, err := New(prog, WithPairProfile(pp))
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
