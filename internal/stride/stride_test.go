package stride

import (
	"testing"
	"testing/quick"

	"stridepf/internal/ir"
	"stridepf/internal/machine"
)

func key(id int) machine.LoadKey { return machine.LoadKey{Func: "f", ID: id} }

// feed runs the given address stream through a fresh runtime and returns
// the runtime and the load's record.
func feed(cfg Config, addrs []int64) (*Runtime, *ProfData) {
	rt := NewRuntime(cfg)
	rt.AddLoad(key(1))
	pd := rt.Data(key(1))
	for _, a := range addrs {
		rt.Profile(pd, a)
	}
	return rt, pd
}

// strided produces n addresses starting at base with the given stride.
func strided(base, stride int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = base + int64(i)*stride
	}
	return out
}

func TestConstantStrideStream(t *testing.T) {
	_, pd := feed(Config{}, strided(0x1000, 64, 101))
	if pd.TotalStrides != 100 {
		t.Errorf("TotalStrides = %d, want 100", pd.TotalStrides)
	}
	top := pd.LFU.Top(1)
	if len(top) != 1 || top[0].Value != 64 || top[0].Freq != 100 {
		t.Errorf("top stride = %v, want {64 100}", top)
	}
	// First stride has no previous stride; the remaining 99 repeat it.
	if pd.NumZeroDiff != 99 {
		t.Errorf("NumZeroDiff = %d, want 99", pd.NumZeroDiff)
	}
	if pd.NumZeroStride != 0 {
		t.Errorf("NumZeroStride = %d, want 0", pd.NumZeroStride)
	}
}

func TestZeroStrideFastPath(t *testing.T) {
	addrs := make([]int64, 50)
	for i := range addrs {
		addrs[i] = 0x4000 // same address every time
	}
	rt, pd := feed(Config{}, addrs)
	if pd.NumZeroStride != 49 {
		t.Errorf("NumZeroStride = %d, want 49", pd.NumZeroStride)
	}
	if got := rt.LFUCalls(); got != 0 {
		t.Errorf("LFUCalls = %d, want 0 (zero strides bypass LFU)", got)
	}
	if pd.TotalStrides != 49 {
		t.Errorf("TotalStrides = %d, want 49", pd.TotalStrides)
	}
}

func TestPhasedStrideSequenceFigure4(t *testing.T) {
	// Figure 4(a)/(b): strides 2,2,2,2,2 then 100,100,100,100 then 1.
	// (Reconstructed as addresses.) Top strides {2:5, 100:4}; stride
	// differences have 7 zeros out of 9.
	addrs := []int64{10}
	cur := int64(10)
	for _, s := range []int64{2, 2, 2, 2, 2, 100, 100, 100, 100, 1} {
		cur += s
		addrs = append(addrs, cur)
	}
	_, pd := feed(Config{}, addrs)
	if pd.TotalStrides != 10 {
		t.Errorf("TotalStrides = %d, want 10", pd.TotalStrides)
	}
	top := pd.LFU.Top(2)
	if top[0].Value != 2 || top[0].Freq != 5 || top[1].Value != 100 || top[1].Freq != 4 {
		t.Errorf("top strides = %v, want [{2 5} {100 4}]", top)
	}
	if pd.NumZeroDiff != 7 {
		t.Errorf("NumZeroDiff = %d, want 7 (phased sequence)", pd.NumZeroDiff)
	}
}

func TestAlternatedStrideSequenceFigure4c(t *testing.T) {
	// Figure 4(c): strides 2,100,2,100,2,100,2,100,2,1 — same top strides
	// as the phased sequence but almost no zero differences.
	addrs := []int64{10}
	cur := int64(10)
	for _, s := range []int64{2, 100, 2, 100, 2, 100, 2, 100, 2, 1} {
		cur += s
		addrs = append(addrs, cur)
	}
	_, pd := feed(Config{}, addrs)
	top := pd.LFU.Top(2)
	if top[0].Value != 2 || top[0].Freq != 5 || top[1].Value != 100 || top[1].Freq != 4 {
		t.Errorf("top strides = %v, want [{2 5} {100 4}]", top)
	}
	if pd.NumZeroDiff != 0 {
		t.Errorf("NumZeroDiff = %d, want 0 (alternating sequence)", pd.NumZeroDiff)
	}
}

func TestEnhancedSameValueMasking(t *testing.T) {
	// Addresses wobbling within a 16-byte bucket count as zero strides in
	// Enhanced mode but as non-zero strides in plain mode.
	addrs := []int64{0x1000, 0x1004, 0x1008, 0x100c, 0x1000}
	_, plain := feed(Config{}, addrs)
	if plain.NumZeroStride != 0 {
		t.Errorf("plain NumZeroStride = %d, want 0", plain.NumZeroStride)
	}
	_, enh := feed(Config{Enhanced: true}, addrs)
	if enh.NumZeroStride != 4 {
		t.Errorf("enhanced NumZeroStride = %d, want 4", enh.NumZeroStride)
	}
}

func TestFineSamplingScalesStride(t *testing.T) {
	// With F=4, one of every four references is profiled, and observed
	// strides are 4x the true stride (Figure 8).
	cfg := Config{FineInterval: 4}
	_, pd := feed(cfg, strided(0, 8, 401))
	if pd.Processed != 101 {
		t.Errorf("Processed = %d, want 101 (1 in 4)", pd.Processed)
	}
	top := pd.LFU.Top(1)
	if len(top) != 1 || top[0].Value != 32 {
		t.Errorf("sampled stride = %v, want 32 = 4*8", top)
	}
	// Summaries record the interval so feedback can rescale.
	s := NewRuntime(cfg)
	if got := s.Config().FineInterval; got != 4 {
		t.Errorf("config FineInterval = %d", got)
	}
}

func TestChunkSampling(t *testing.T) {
	// N1=100 skipped, then N2=50 profiled, repeating.
	cfg := Config{ChunkSkip: 100, ChunkProfile: 50}
	rt, pd := feed(cfg, strided(0, 8, 500))
	// Pattern per 151 calls: 100 skips, 1 boundary reset... Work it out by
	// construction: invocations 500; profiled = those that pass the chunk
	// gate.
	if rt.Invocations != 500 {
		t.Fatalf("Invocations = %d, want 500", rt.Invocations)
	}
	if pd.Processed == 0 {
		t.Fatal("chunk sampling profiled nothing")
	}
	if pd.Processed >= 200 {
		t.Errorf("Processed = %d, want well under 200 (gating works)", pd.Processed)
	}
	// Within a profiled chunk the stride is still the true stride.
	top := pd.LFU.Top(1)
	if len(top) == 0 || top[0].Value != 8 {
		t.Errorf("chunked stride = %v, want 8", top)
	}
}

func TestCostsCharged(t *testing.T) {
	rt, pd := feed(Config{}, nil)
	costs := rt.Config().Costs

	// First call: just records the address.
	c1 := rt.Profile(pd, 100)
	if c1 != costs.Call {
		t.Errorf("first-call cost = %d, want %d", c1, costs.Call)
	}
	// Zero stride: fast path.
	c2 := rt.Profile(pd, 100)
	if c2 != costs.Call+costs.ZeroStride {
		t.Errorf("zero-stride cost = %d, want %d", c2, costs.Call+costs.ZeroStride)
	}
	// Non-zero stride: diff path + LFU.
	c3 := rt.Profile(pd, 200)
	if c3 != costs.Call+costs.DiffPath+costs.LFU {
		t.Errorf("stride cost = %d, want %d", c3, costs.Call+costs.DiffPath+costs.LFU)
	}
}

func TestSampledSkipIsCheap(t *testing.T) {
	cfg := Config{FineInterval: 8}
	rt := NewRuntime(cfg)
	rt.AddLoad(key(1))
	pd := rt.Data(key(1))
	costs := rt.Config().Costs
	rt.Profile(pd, 0) // processed (first)
	c := rt.Profile(pd, 8)
	if c != costs.Call+costs.FineCheck {
		t.Errorf("skipped-call cost = %d, want %d", c, costs.Call+costs.FineCheck)
	}
}

func TestAddLoadIdempotent(t *testing.T) {
	rt := NewRuntime(Config{})
	i1 := rt.AddLoad(key(5))
	i2 := rt.AddLoad(key(5))
	if i1 != i2 {
		t.Errorf("AddLoad returned %d then %d for same key", i1, i2)
	}
	if len(rt.Records()) != 1 {
		t.Errorf("records = %d, want 1", len(rt.Records()))
	}
}

func TestSummarizeOrderingAndContent(t *testing.T) {
	rt := NewRuntime(Config{})
	rt.AddLoad(machine.LoadKey{Func: "b", ID: 2})
	rt.AddLoad(machine.LoadKey{Func: "a", ID: 9})
	rt.AddLoad(machine.LoadKey{Func: "a", ID: 1})
	for _, a := range strided(0, 16, 11) {
		rt.Profile(rt.Data(machine.LoadKey{Func: "a", ID: 1}), a)
	}
	sums := rt.Summarize()
	if len(sums) != 3 {
		t.Fatalf("summaries = %d, want 3", len(sums))
	}
	if sums[0].Key != (machine.LoadKey{Func: "a", ID: 1}) ||
		sums[1].Key != (machine.LoadKey{Func: "a", ID: 9}) ||
		sums[2].Key != (machine.LoadKey{Func: "b", ID: 2}) {
		t.Errorf("summary order wrong: %v %v %v", sums[0].Key, sums[1].Key, sums[2].Key)
	}
	if sums[0].TotalStrides != 10 || len(sums[0].TopStrides) == 0 || sums[0].TopStrides[0].Value != 16 {
		t.Errorf("summary content wrong: %+v", sums[0])
	}
	if sums[0].FineInterval != 1 {
		t.Errorf("FineInterval = %d, want 1", sums[0].FineInterval)
	}
}

func TestQuickStrideAccounting(t *testing.T) {
	// For any address stream: TotalStrides = ZeroStrides + LFU total, and
	// ZeroDiffs <= LFU total, and Processed = len(stream) without sampling.
	prop := func(seed int64, raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		addrs := make([]int64, len(raw))
		for i, r := range raw {
			addrs[i] = int64(r) * 16
		}
		_, pd := feed(Config{}, addrs)
		if pd.Processed != int64(len(addrs)) {
			return false
		}
		if pd.TotalStrides != pd.NumZeroStride+pd.LFU.Total() {
			return false
		}
		return pd.NumZeroDiff <= pd.LFU.Total()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickFineSamplingAlgebra(t *testing.T) {
	// For a perfectly strided stream, sampling with any F >= 2 observes
	// exactly F*stride (Figure 8's S1 = F*S2 relation).
	prop := func(strideSeed uint8, fSeed uint8) bool {
		stride := int64(strideSeed%100) + 1
		f := int(fSeed%6) + 2
		cfg := Config{FineInterval: f}
		_, pd := feed(cfg, strided(0x100, stride, 40*f+1))
		top := pd.LFU.Top(1)
		return len(top) == 1 && top[0].Value == int64(f)*stride
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRegisterHookOnMachine(t *testing.T) {
	// End-to-end: a hook-instrumented load loop produces a stride profile.
	rt := NewRuntime(Config{})
	idx := rt.AddLoad(machine.LoadKey{Func: "main", ID: 999})

	prog := buildHookLoop(int64(idx))
	m, err := machine.New(prog, machine.Config{Hooks: rt.Hooks()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	pd := rt.Data(machine.LoadKey{Func: "main", ID: 999})
	top := pd.LFU.Top(1)
	if len(top) != 1 || top[0].Value != 64 {
		t.Errorf("profiled stride = %v, want 64", top)
	}
	if rt.Invocations != 100 {
		t.Errorf("Invocations = %d, want 100", rt.Invocations)
	}
}

// buildHookLoop builds a 100-iteration loop over a 64-byte-strided array
// with a strideProf hook before the load.
func buildHookLoop(dataIndex int64) *ir.Program {
	b := ir.NewBuilder("main")
	head := b.Block("head")
	body := b.Block("body")
	exit := b.Block("exit")

	p := b.Const(0x5000)
	n := b.Const(100)
	i := b.Const(0)
	idx := b.Const(dataIndex)
	b.Br(head)

	b.At(head)
	b.CondBr(b.CmpLT(i, n), body, exit)

	b.At(body)
	b.Hook(HookID, idx, p)
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

func TestChunkSamplingExactPeriod(t *testing.T) {
	// The sampling period must be exactly ChunkSkip+ChunkProfile references
	// with exactly ChunkProfile of them profiled. The old reset swallowed
	// the boundary reference (neither skipped nor profiled), stretching the
	// period to ChunkSkip+ChunkProfile+1 and skewing Figure 21's
	// processed-reference counts.
	cases := []struct {
		skip, prof int64
		refs       int
	}{
		{3, 2, 25},                                           // 5 exact periods
		{100, 50, 600} /* 4 exact periods */, {100, 50, 500}, // partial tail: 3 periods + 50 skips
		{1, 1, 100},
	}
	for _, tc := range cases {
		cfg := Config{ChunkSkip: tc.skip, ChunkProfile: tc.prof}
		_, pd := feed(cfg, strided(0, 8, tc.refs))
		period := tc.skip + tc.prof
		full := int64(tc.refs) / period
		tail := int64(tc.refs) % period
		want := full * tc.prof
		if extra := tail - tc.skip; extra > 0 {
			want += extra
		}
		if pd.Processed != want {
			t.Errorf("skip=%d profile=%d refs=%d: Processed = %d, want %d",
				tc.skip, tc.prof, tc.refs, pd.Processed, want)
		}
	}
}

func TestHookMisuseCounted(t *testing.T) {
	rt := NewRuntime(Config{})
	rt.AddLoad(key(1))

	// Malformed: wrong arg count. Out of range: index past the table.
	prog := buildMisuseProg(99)
	m, err := machine.New(prog, machine.Config{Hooks: rt.Hooks()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatalf("unchecked run must not fail on hook misuse: %v", err)
	}
	if rt.MalformedCalls != 1 {
		t.Errorf("MalformedCalls = %d, want 1", rt.MalformedCalls)
	}
	if rt.OutOfRangeCalls != 2 {
		t.Errorf("OutOfRangeCalls = %d, want 2", rt.OutOfRangeCalls)
	}
}

func TestHookMisuseFaultsUnderSelfCheck(t *testing.T) {
	rt := NewRuntime(Config{})
	rt.AddLoad(key(1))
	prog := buildMisuseProg(99)
	m, err := machine.New(prog, machine.Config{SelfCheck: true, Hooks: rt.Hooks()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err == nil {
		t.Fatal("self-checked run swallowed hook misuse, want error")
	}
}

// buildMisuseProg emits one malformed hook call (wrong arity) and two
// out-of-range hook calls (negative index, index past the table), plus one
// well-formed call so the program exercises the healthy path too.
func buildMisuseProg(badIdx int64) *ir.Program {
	b := ir.NewBuilder("main")
	p := b.Const(0x5000)
	good := b.Const(0)
	neg := b.Const(-1)
	big := b.Const(badIdx)
	b.Hook(HookID, p) // malformed: 1 arg
	b.Hook(HookID, neg, p)
	b.Hook(HookID, big, p)
	b.Hook(HookID, good, p)
	b.Ret(ir.NoReg)
	prog := ir.NewProgram()
	prog.Add(b.Finish())
	return prog
}
