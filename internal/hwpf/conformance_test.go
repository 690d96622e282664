package hwpf

// Differential conformance suite: ground-truth kernels whose prefetch
// coverage is computable by hand, run through the real machine with each
// scheme attached and the obs accuracy/coverage/timeliness roll-ups
// checked against the closed-form counts.
//
// The arithmetic, for an N-access stream with stride = one cache line and
// every scheme's one prediction per access, 4 strides (distance) ahead:
//
//   - every scheme confirms the pattern on its third access (the tables
//     need allocate + one delta, the tracker needs one repeated delta, the
//     periodic detector needs two period-1 repeats), so accesses 3..N each
//     issue one prefetch: Issued = N-2, all targets distinct lines,
//     Redundant = 0;
//   - the target of access i is the line of access i+4, so accesses 7..N
//     are covered (Useful or Late, depending only on timing) and accesses
//     1..6 are the uncovered misses: covered = N-6, UncoveredMisses = 6;
//   - the last four prefetches target lines past the end of the stream and
//     are never demanded: EvictedUnused+ResidentUnused+InFlightEnd = 4;
//   - accuracy = (N-6)/(N-2), class coverage = (N-6)/N, and the obs
//     lifecycle identity (Reconcile) must hold exactly.

import (
	"testing"

	"stridepf/internal/ir"
	"stridepf/internal/machine"
	"stridepf/internal/obs"
)

// loopProg builds the shared kernel skeleton: one counted loop around one
// static load, with the per-iteration pointer update supplied by step.
func loopProg(base uint64, trip int64, step func(b *ir.Builder, p, i ir.Reg)) *ir.Program {
	b := ir.NewBuilder("main")
	sum := b.F.NewReg()
	b.MovConst(sum, 0)
	p := b.F.NewReg()
	b.MovConst(p, int64(base))
	i := b.F.NewReg()
	b.MovConst(i, 0)
	tripR := b.Const(trip)

	head := b.Block("head")
	body := b.Block("body")
	exit := b.Block("exit")
	b.Br(head)

	b.At(head)
	b.CondBr(b.CmpLT(i, tripR), body, exit)

	b.At(body)
	v := b.Load(p, 0).Dst
	b.Mov(sum, b.Add(sum, v))
	step(b, p, i)
	b.AddITo(i, i, 1)
	b.Br(head)

	b.At(exit)
	b.Ret(sum)

	prog := ir.NewProgram()
	prog.Add(b.Finish())
	return prog
}

// runConformance executes prog on the real machine with the scheme under
// test attached and an obs collector observing the hierarchy.
func runConformance(t *testing.T, prog *ir.Program, p Prefetcher, setup func(m *machine.Machine)) *obs.Collector {
	t.Helper()
	col := obs.NewCollector(nil)
	m, err := machine.New(prog, machine.Config{NewHWPrefetch: func() machine.HWPrefetcher { return p }, Obs: col})
	if err != nil {
		t.Fatal(err)
	}
	if setup != nil {
		setup(m)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	m.FinishObs()
	return col
}

// storeAll maps and fills the given addresses so every demand access and
// prefetch target translates.
func storeAll(m *machine.Machine, addrs []uint64) {
	for j, a := range addrs {
		m.Mem.Store(a, int64(j+1))
	}
}

// TestConformanceSingleStride checks the closed-form counts above for all
// four schemes on the canonical line-stride stream.
func TestConformanceSingleStride(t *testing.T) {
	const (
		base = uint64(0x3000_0000)
		n    = 400
	)
	prog := loopProg(base, n, func(b *ir.Builder, p, i ir.Reg) {
		b.AddITo(p, p, 64)
	})
	// Map the stream plus the prefetched tail.
	var addrs []uint64
	for j := 0; j < n+8; j++ {
		addrs = append(addrs, base+uint64(j)*64)
	}

	for _, scheme := range Schemes() {
		t.Run(scheme, func(t *testing.T) {
			p, err := NewScheme(scheme, Config{})
			if err != nil {
				t.Fatal(err)
			}
			col := runConformance(t, prog, p, func(m *machine.Machine) { storeAll(m, addrs) })

			hw := col.Classes[obs.ClassHW]
			if hw.Issued != n-2 {
				t.Errorf("obs Issued = %d, want %d", hw.Issued, n-2)
			}
			if hw.Redundant != 0 || hw.DroppedTLB != 0 || hw.DroppedMSHR != 0 {
				t.Errorf("unexpected drops: %+v", hw)
			}
			if covered := hw.Useful + hw.Late; covered != n-6 {
				t.Errorf("covered = %d (useful %d + late %d), want %d", covered, hw.Useful, hw.Late, n-6)
			}
			if col.UncoveredMisses != 6 {
				t.Errorf("UncoveredMisses = %d, want 6", col.UncoveredMisses)
			}
			if unused := hw.EvictedUnused + hw.ResidentUnused + hw.InFlightEnd; unused != 4 {
				t.Errorf("unused tail = %d, want 4", unused)
			}
			if got, want := hw.Accuracy(), float64(n-6)/float64(n-2); got != want {
				t.Errorf("accuracy = %v, want %v", got, want)
			}
			if got, want := col.ClassCoverage(obs.ClassHW), float64(n-6)/float64(n); got != want {
				t.Errorf("coverage = %v, want %v", got, want)
			}
			if err := col.Reconcile(); err != nil {
				t.Errorf("lifecycle identity: %v", err)
			}
			c := p.Counters()
			if c.Issued != n-2 {
				t.Errorf("scheme Issued = %d, want %d", c.Issued, n-2)
			}
			if c.Wrapped != 0 {
				t.Errorf("scheme Wrapped = %d, want 0", c.Wrapped)
			}
			if c.Issued != hw.Attempts() {
				t.Errorf("scheme issued %d but obs accounted %d attempts", c.Issued, hw.Attempts())
			}
			if scheme == "tracker" && c.Useful != n-6 {
				t.Errorf("tracker local Useful = %d, want %d", c.Useful, n-6)
			}
		})
	}
}

// TestConformanceAlternatingStride checks the interleaved-stride kernel
// (+64/+192, the Blom et al. row-of-structs shape): the single-stride
// automatons must stay silent — their stride check never sees two equal
// consecutive deltas — while multi-stride confirms period 2 on access 5 and
// covers everything from access 9 on.
func TestConformanceAlternatingStride(t *testing.T) {
	const (
		base = uint64(0x3100_0000)
		n    = 400
	)
	prog := loopProg(base, n, func(b *ir.Builder, p, i ir.Reg) {
		// step = 64 + (i&1)*128: 64 on even iterations, 192 on odd.
		step := b.AddI(b.Mul(b.AndI(i, 1), b.Const(128)), 64)
		b.Mov(p, b.Add(p, step))
	})
	addrs := alternatingAddrs(base, 64, 192, n+8)

	for _, scheme := range Schemes() {
		t.Run(scheme, func(t *testing.T) {
			p, err := NewScheme(scheme, Config{})
			if err != nil {
				t.Fatal(err)
			}
			col := runConformance(t, prog, p, func(m *machine.Machine) { storeAll(m, addrs) })

			hw := col.Classes[obs.ClassHW]
			if scheme != "multi-stride" {
				if hw != (obs.ClassStats{}) {
					t.Fatalf("single-stride scheme prefetched on an alternating stream: %+v", hw)
				}
				if c := p.Counters(); c.Issued != 0 {
					t.Fatalf("scheme Issued = %d, want 0", c.Issued)
				}
				if col.UncoveredMisses != n {
					t.Errorf("UncoveredMisses = %d, want %d", col.UncoveredMisses, n)
				}
				return
			}
			// multi-stride: period 2 confirmed on access 5 (after 4 deltas),
			// issuing the address 4 accesses ahead from then on.
			if hw.Issued != n-4 {
				t.Errorf("obs Issued = %d, want %d", hw.Issued, n-4)
			}
			if hw.Redundant != 0 || hw.DroppedTLB != 0 || hw.DroppedMSHR != 0 {
				t.Errorf("unexpected drops: %+v", hw)
			}
			if covered := hw.Useful + hw.Late; covered != n-8 {
				t.Errorf("covered = %d, want %d", covered, n-8)
			}
			if col.UncoveredMisses != 8 {
				t.Errorf("UncoveredMisses = %d, want 8", col.UncoveredMisses)
			}
			if unused := hw.EvictedUnused + hw.ResidentUnused + hw.InFlightEnd; unused != 4 {
				t.Errorf("unused tail = %d, want 4", unused)
			}
			if got, want := hw.Accuracy(), float64(n-8)/float64(n-4); got != want {
				t.Errorf("accuracy = %v, want %v", got, want)
			}
			if got, want := col.ClassCoverage(obs.ClassHW), float64(n-8)/float64(n); got != want {
				t.Errorf("coverage = %v, want %v", got, want)
			}
			if err := col.Reconcile(); err != nil {
				t.Errorf("lifecycle identity: %v", err)
			}
			if c := p.Counters(); c.Issued != hw.Attempts() {
				t.Errorf("scheme issued %d but obs accounted %d attempts", c.Issued, hw.Attempts())
			}
		})
	}
}

// chaseOrder returns a seed-derived permutation of node indices with a
// fixed xorshift generator, the visit order of the pointer chase.
func chaseOrder(nodes int, seed uint64) []int {
	rng := seed ^ 0x9E3779B97F4A7C15
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	perm := make([]int, nodes)
	for i := range perm {
		perm[i] = i
	}
	for i := nodes - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

// aperiodic reports whether the address stream contains, at any point, a
// delta window the multi-stride detector would confirm (last p deltas
// equal the p before them with one non-zero, p <= max). This is the
// precondition that makes the irregular kernel's zero-issue assertion
// meaningful rather than an accident of the permutation.
func aperiodic(addrs []uint64, max int) bool {
	deltas := make([]int64, len(addrs)-1)
	for i := range deltas {
		deltas[i] = int64(addrs[i+1]) - int64(addrs[i])
	}
	for end := 0; end < len(deltas); end++ {
		for p := 1; p <= max; p++ {
			if end+1 < 2*p {
				continue
			}
			ok, nonzero := true, false
			for i := 0; i < p; i++ {
				d := deltas[end-i]
				if d != deltas[end-i-p] {
					ok = false
					break
				}
				if d != 0 {
					nonzero = true
				}
			}
			if ok && nonzero {
				return false
			}
		}
	}
	return true
}

// TestConformanceIrregularChase checks the negative ground truth: on a
// pointer chase whose delta stream never repeats with any period <= 4
// (asserted, not assumed), every scheme must issue exactly nothing.
func TestConformanceIrregularChase(t *testing.T) {
	const (
		base  = uint64(0x3200_0000)
		nodes = 512
		trip  = 2000
	)
	// Deterministically search for a permutation whose delta stream has no
	// period the detector could confirm; the walk cycles through it, and
	// its address stream is what every scheme observes.
	var perm []int
	var walk []uint64
	for seed := uint64(1); ; seed++ {
		if seed > 100 {
			t.Fatal("no aperiodic permutation in 100 seeds; the precondition search is broken")
		}
		perm = chaseOrder(nodes, seed)
		walk = walk[:0]
		for j := 0; j < trip; j++ {
			walk = append(walk, base+uint64(perm[j%nodes])*64)
		}
		if aperiodic(walk, 4) {
			break
		}
	}
	nodeAddr := func(i int) uint64 { return base + uint64(perm[i])*64 }

	// The chase loop is its own shape — the load *is* the pointer update
	// (p = *p), so loopProg's load-then-step skeleton does not apply.
	b := ir.NewBuilder("main")
	sum := b.F.NewReg()
	b.MovConst(sum, 0)
	p := b.F.NewReg()
	b.MovConst(p, int64(nodeAddr(0)))
	i := b.F.NewReg()
	b.MovConst(i, 0)
	tripR := b.Const(trip)
	head := b.Block("head")
	body := b.Block("body")
	exit := b.Block("exit")
	b.Br(head)
	b.At(head)
	b.CondBr(b.CmpLT(i, tripR), body, exit)
	b.At(body)
	b.LoadTo(p, p, 0)
	b.Mov(sum, b.Add(sum, p))
	b.AddITo(i, i, 1)
	b.Br(head)
	b.At(exit)
	b.Ret(sum)
	prog := ir.NewProgram()
	prog.Add(b.Finish())
	setup := func(m *machine.Machine) {
		for j := 0; j < nodes; j++ {
			m.Mem.Store(nodeAddr(j), int64(nodeAddr((j+1)%nodes)))
		}
	}

	for _, scheme := range Schemes() {
		t.Run(scheme, func(t *testing.T) {
			p, err := NewScheme(scheme, Config{})
			if err != nil {
				t.Fatal(err)
			}
			col := runConformance(t, prog, p, setup)
			if hw := col.Classes[obs.ClassHW]; hw != (obs.ClassStats{}) {
				t.Errorf("scheme prefetched on an aperiodic chase: %+v", hw)
			}
			if c := p.Counters(); c.Issued != 0 {
				t.Errorf("scheme Issued = %d, want 0", c.Issued)
			}
			if col.Coverage() != 0 {
				t.Errorf("coverage = %v, want 0", col.Coverage())
			}
			if col.UncoveredMisses == 0 {
				t.Error("chase produced no misses; the kernel is vacuous")
			}
		})
	}
}

// TestRPTCountersReconcile is the counter audit the obs layer's lifecycle
// identity demands: the RPT's scheme-side Issued must equal the obs layer's
// per-class attempt count (issued + redundant + dropped) — the RPT counts
// predictions handed over, the obs layer splits their fates — and the
// lifecycle identity must close over them.
func TestRPTCountersReconcile(t *testing.T) {
	const (
		base = uint64(0x3300_0000)
		n    = 300
	)
	prog := loopProg(base, n, func(b *ir.Builder, p, i ir.Reg) {
		b.AddITo(p, p, 64)
	})
	var addrs []uint64
	for j := 0; j < n+8; j++ {
		addrs = append(addrs, base+uint64(j)*64)
	}
	r, err := NewScheme("rpt", Config{})
	if err != nil {
		t.Fatal(err)
	}
	col := runConformance(t, prog, r, func(m *machine.Machine) { storeAll(m, addrs) })

	hw := col.Classes[obs.ClassHW]
	issued := r.Counters().Issued
	if issued != hw.Attempts() {
		t.Errorf("RPT issued %d, obs accounted %d attempts (%+v)", issued, hw.Attempts(), hw)
	}
	if err := col.Reconcile(); err != nil {
		t.Errorf("lifecycle identity: %v", err)
	}
	if issued == 0 {
		t.Error("kernel confirmed no predictions; the audit is vacuous")
	}
}
