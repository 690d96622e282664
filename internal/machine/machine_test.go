package machine

import (
	"errors"
	"strings"
	"testing"

	"stridepf/internal/ir"
)

// sumProgram builds main() that sums the n-element linked list rooted at
// the pointer stored at global address 0x2000 and returns the sum.
// Node layout: [value, next].
func sumProgram() *ir.Program {
	p := ir.NewProgram()
	b := ir.NewBuilder("main")
	head := b.Block("head")
	body := b.Block("body")
	exit := b.Block("exit")

	gp := b.Const(0x2000)
	cur := b.F.NewReg()
	b.LoadTo(cur, gp, 0)
	sum := b.Const(0)
	zero := b.Const(0)
	b.Br(head)

	b.At(head)
	b.CondBr(b.CmpNE(cur, zero), body, exit)

	b.At(body)
	v := b.Load(cur, 0)
	b.Mov(sum, b.Add(sum, v.Dst))
	b.LoadTo(cur, cur, 8)
	b.Br(head)

	b.At(exit)
	b.Ret(sum)
	p.Add(b.Finish())
	return p
}

// buildList writes an n-node list into m's heap and plants the head pointer
// at 0x2000. Returns the expected sum.
func buildList(m *Machine, n int) int64 {
	var prev uint64
	var sum int64
	addrs := make([]uint64, n)
	for i := 0; i < n; i++ {
		addrs[i] = m.Heap.Alloc(16)
	}
	for i := n - 1; i >= 0; i-- {
		a := addrs[i]
		m.Mem.Store(a, int64(i))
		m.Mem.Store(a+8, int64(prev))
		sum += int64(i)
		prev = a
	}
	m.Mem.Store(0x2000, int64(addrs[0]))
	return sum
}

func TestRunLinkedListSum(t *testing.T) {
	p := sumProgram()
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	want := buildList(m, 1000)
	got, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("sum = %d, want %d", got, want)
	}
	st := m.Stats()
	// Two loads per node plus the initial head load.
	if st.LoadRefs != 2*1000+1 {
		t.Errorf("LoadRefs = %d, want %d", st.LoadRefs, 2*1000+1)
	}
	if st.Cycles == 0 || st.Instrs == 0 {
		t.Error("no cycles/instructions recorded")
	}
}

func TestLoadCountsPerStaticLoad(t *testing.T) {
	p := sumProgram()
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	buildList(m, 50)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	counts := m.LoadCounts()
	var got []uint64
	for _, c := range counts {
		got = append(got, c)
	}
	if len(counts) != 3 {
		t.Fatalf("distinct static loads = %d (%v), want 3", len(counts), got)
	}
	var fifty int
	for _, c := range counts {
		if c == 50 {
			fifty++
		}
	}
	if fifty != 2 {
		t.Errorf("loads with 50 refs = %d, want 2 (value and next)", fifty)
	}
}

func TestArithmetic(t *testing.T) {
	b := ir.NewBuilder("main")
	a := b.Const(100)
	c := b.Const(7)
	q := b.Div(a, c)   // 14
	r := b.Rem(a, c)   // 2
	s := b.Mul(q, c)   // 98
	x := b.Add(s, r)   // 100
	y := b.Sub(x, a)   // 0
	z := b.ShlI(c, 4)  // 112
	w := b.Or(y, z)    // 112
	v := b.AndI(w, 96) // 96
	b.Ret(v)
	p := ir.NewProgram()
	p.Add(b.Finish())

	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got != 96 {
		t.Errorf("result = %d, want 96", got)
	}
}

func TestDivisionByZeroYieldsZero(t *testing.T) {
	b := ir.NewBuilder("main")
	a := b.Const(5)
	z := b.Const(0)
	b.Ret(b.Add(b.Div(a, z), b.Rem(a, z)))
	p := ir.NewProgram()
	p.Add(b.Finish())
	m, _ := New(p)
	got, err := m.Run()
	if err != nil || got != 0 {
		t.Errorf("div/rem by zero = %d (%v), want 0", got, err)
	}
}

func TestPredicationSquashes(t *testing.T) {
	b := ir.NewBuilder("main")
	dst := b.Const(1) // dst = 1
	pt := b.Const(1)  // true predicate
	pf := b.Const(0)  // false predicate

	in1 := b.MovConst(b.F.NewReg(), 0)
	in1.Dst = dst
	in1.Pred = pf // squashed: dst stays 1
	in2 := b.MovConst(b.F.NewReg(), 0)
	in2.Pred = pt // executes into a scratch reg

	b.Ret(dst)
	p := ir.NewProgram()
	p.Add(b.Finish())
	m, _ := New(p)
	got, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("predicated-off mov executed: got %d, want 1", got)
	}
	// Squashed instructions still consume issue slots.
	if m.Stats().Instrs < 6 {
		t.Errorf("Instrs = %d, squashed instruction not counted", m.Stats().Instrs)
	}
}

func TestCallAndReturn(t *testing.T) {
	p := ir.NewProgram()

	callee := ir.NewBuilder("double")
	x := callee.Param()
	callee.Ret(callee.Add(x, x))
	p.Add(callee.Finish())

	b := ir.NewBuilder("main")
	a := b.Const(21)
	call := b.Call("double", a)
	b.Ret(call.Dst)
	p.Add(b.Finish())

	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Run()
	if err != nil || got != 42 {
		t.Errorf("call result = %d (%v), want 42", got, err)
	}
}

func TestRecursionDepthLimit(t *testing.T) {
	p := ir.NewProgram()
	b := ir.NewBuilder("main")
	b.CallVoid("main2")
	b.Ret(ir.NoReg)
	p.Add(b.Finish())
	c := ir.NewBuilder("main2")
	c.CallVoid("main2")
	c.Ret(ir.NoReg)
	p.Add(c.Finish())

	m, err := New(p, WithConfig(Config{MaxDepth: 10}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); !errors.Is(err, ErrMaxDepth) {
		t.Errorf("err = %v, want ErrMaxDepth", err)
	}
}

func TestStepLimit(t *testing.T) {
	b := ir.NewBuilder("main")
	loop := b.Block("loop")
	b.Br(loop)
	b.At(loop)
	b.Br(loop)
	p := ir.NewProgram()
	p.Add(b.Finish())
	m, _ := New(p, WithConfig(Config{MaxSteps: 1000}))
	if _, err := m.Run(); !errors.Is(err, ErrMaxSteps) {
		t.Errorf("err = %v, want ErrMaxSteps", err)
	}
}

func TestHooksAndCycleCharging(t *testing.T) {
	b := ir.NewBuilder("main")
	x := b.Const(5)
	y := b.Const(6)
	b.Hook(42, x, y)
	b.Ret(ir.NoReg)
	p := ir.NewProgram()
	p.Add(b.Finish())

	m, _ := New(p)
	var gotArgs []int64
	m.Register(42, func(mm *Machine, args []int64) {
		gotArgs = append([]int64(nil), args...)
		mm.AddCycles(1000)
	})
	before := m.Stats().Cycles
	_ = before
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(gotArgs) != 2 || gotArgs[0] != 5 || gotArgs[1] != 6 {
		t.Errorf("hook args = %v, want [5 6]", gotArgs)
	}
	if m.Stats().Cycles < 1000 {
		t.Errorf("cycles = %d, hook charge not applied", m.Stats().Cycles)
	}
	if m.Stats().HookCalls != 1 {
		t.Errorf("HookCalls = %d, want 1", m.Stats().HookCalls)
	}
}

func TestUnregisteredHookFails(t *testing.T) {
	b := ir.NewBuilder("main")
	b.Hook(7)
	b.Ret(ir.NoReg)
	p := ir.NewProgram()
	p.Add(b.Finish())
	m, _ := New(p)
	if _, err := m.Run(); err == nil {
		t.Error("unregistered hook did not fail")
	}
}

// TestUnregisteredHookFailsUpfront checks that hook binding happens at Run
// start, not at first execution: a hook on a branch that never runs still
// fails, and the error names the hook ID and instruction site. Registering
// the hook afterwards makes the same machine runnable.
func TestUnregisteredHookFailsUpfront(t *testing.T) {
	b := ir.NewBuilder("main")
	taken := b.Block("taken")
	dead := b.Block("dead")
	b.CondBr(b.Const(1), taken, dead)
	b.At(dead) // never executed, but its hook must still be checked
	b.Hook(42)
	b.Ret(ir.NoReg)
	b.At(taken)
	b.Ret(b.Const(0))
	p := ir.NewProgram()
	p.Add(b.Finish())

	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run()
	if err == nil {
		t.Fatal("hook on dead path did not fail at Run start")
	}
	for _, want := range []string{"hook 42", "main", "dead"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	if got := m.Stats().Instrs; got != 0 {
		t.Errorf("executed %d instructions before failing; want 0", got)
	}

	m.Register(42, func(_ *Machine, _ []int64) {})
	if _, err := m.Run(); err != nil {
		t.Errorf("run after registering hook: %v", err)
	}
}

// TestUnknownOpcodeRejected checks that New refuses an opcode the machine
// does not implement (the verifier accepts any opcode with a valid
// destination), naming the site, instead of translating it into a no-op.
func TestUnknownOpcodeRejected(t *testing.T) {
	b := ir.NewBuilder("main")
	x := b.Const(1)
	b.Mov(x, x).Op = ir.OpHook + 1
	b.Ret(x)
	p := ir.NewProgram()
	p.Add(b.Finish())
	if err := ir.VerifyProgram(p); err != nil {
		t.Fatalf("verifier rejected the program: %v", err)
	}
	_, err := New(p)
	if err == nil || !strings.Contains(err.Error(), "unimplemented opcode") {
		t.Fatalf("New err = %v, want an unimplemented-opcode error", err)
	}
}

func TestAllocAndRand(t *testing.T) {
	b := ir.NewBuilder("main")
	sz := b.Const(64)
	a1 := b.Alloc(sz)
	a2 := b.Alloc(sz)
	diff := b.Sub(a2.Dst, a1.Dst)
	bound := b.Const(10)
	r := b.Rand(bound)
	ok1 := b.CmpGE(r, b.Const(0))
	ok2 := b.CmpLT(r, bound)
	b.Ret(b.Add(diff, b.Add(ok1, ok2)))
	p := ir.NewProgram()
	p.Add(b.Finish())

	m, _ := New(p)
	got, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got != 64+2 {
		t.Errorf("alloc spacing + rand bounds = %d, want 66", got)
	}
}

func TestRandDeterministicAcrossMachines(t *testing.T) {
	build := func() *ir.Program {
		b := ir.NewBuilder("main")
		bound := b.Const(1 << 30)
		r1 := b.Rand(bound)
		r2 := b.Rand(bound)
		b.Ret(b.Xor(r1, r2))
		p := ir.NewProgram()
		p.Add(b.Finish())
		return p
	}
	m1, _ := New(build(), WithConfig(Config{Seed: 7}))
	m2, _ := New(build(), WithConfig(Config{Seed: 7}))
	v1, _ := m1.Run()
	v2, _ := m2.Run()
	if v1 != v2 {
		t.Errorf("same seed produced %d vs %d", v1, v2)
	}
	m3, _ := New(build(), WithConfig(Config{Seed: 8}))
	v3, _ := m3.Run()
	if v1 == v3 {
		t.Error("different seeds produced identical streams (suspicious)")
	}
}

func TestPrefetchReducesCycles(t *testing.T) {
	// Walk a large array twice: once plain, once with prefetch 8 lines
	// ahead inserted before the load. The prefetched version must be
	// substantially faster — this is the mechanism every speedup experiment
	// relies on.
	build := func(withPrefetch bool) *ir.Program {
		b := ir.NewBuilder("main")
		head := b.Block("head")
		body := b.Block("body")
		exit := b.Block("exit")

		p := b.Const(0x2000_0000)
		n := b.Const(200_000)
		i := b.Const(0)
		b.Br(head)

		b.At(head)
		b.CondBr(b.CmpLT(i, n), body, exit)

		b.At(body)
		if withPrefetch {
			b.Prefetch(p, 8*64)
		}
		b.Load(p, 0)
		b.AddITo(p, p, 64)
		b.AddITo(i, i, 1)
		b.Br(head)

		b.At(exit)
		b.Ret(ir.NoReg)
		prog := ir.NewProgram()
		prog.Add(b.Finish())
		return prog
	}
	runCycles := func(withPrefetch bool) uint64 {
		m, err := New(build(withPrefetch))
		if err != nil {
			t.Fatal(err)
		}
		// Map the array region so prefetches are not treated as wild.
		for a := uint64(0x2000_0000); a < 0x2000_0000+200_000*64+4096; a += 4096 {
			m.Mem.Store(a, 1)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return m.Stats().Cycles
	}
	plain := runCycles(false)
	pf := runCycles(true)
	if pf*10 > plain*9 {
		t.Errorf("prefetch saved too little: %d vs %d cycles", pf, plain)
	}
}

func TestInterrupt(t *testing.T) {
	build := func() *ir.Program {
		b := ir.NewBuilder("main")
		loop := b.Block("loop")
		b.Br(loop)
		b.At(loop)
		b.Br(loop)
		p := ir.NewProgram()
		p.Add(b.Finish())
		return p
	}

	// A closed channel aborts the run at the next poll point.
	ch := make(chan struct{})
	close(ch)
	m, err := New(build(), WithInterrupt(ch))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); !errors.Is(err, ErrInterrupted) {
		t.Errorf("err = %v, want ErrInterrupted", err)
	}

	// Closing mid-run stops the (otherwise step-limited) loop early.
	ch2 := make(chan struct{})
	m2, err := New(build(), WithMaxSteps(1<<40), WithInterrupt(ch2))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := m2.Run()
		done <- err
	}()
	close(ch2)
	if err := <-done; !errors.Is(err, ErrInterrupted) {
		t.Errorf("mid-run err = %v, want ErrInterrupted", err)
	}

	// A nil channel (the default) changes nothing.
	m3, _ := New(build(), WithMaxSteps(1000))
	if _, err := m3.Run(); !errors.Is(err, ErrMaxSteps) {
		t.Errorf("nil-interrupt err = %v, want ErrMaxSteps", err)
	}
}
