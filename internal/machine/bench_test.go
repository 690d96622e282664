package machine

import (
	"testing"

	"stridepf/internal/cache"
	"stridepf/internal/hwpf"
	"stridepf/internal/ir"
	"stridepf/internal/obs"
)

// BenchmarkInterpreterALU measures raw interpretation speed on an
// arithmetic loop (instructions per b.N iteration: ~6).
func BenchmarkInterpreterALU(b *testing.B) {
	bl := ir.NewBuilder("main")
	head := bl.Block("head")
	body := bl.Block("body")
	exit := bl.Block("exit")
	n := bl.Const(int64(b.N))
	i := bl.Const(0)
	acc := bl.Const(1)
	bl.Br(head)
	bl.At(head)
	bl.CondBr(bl.CmpLT(i, n), body, exit)
	bl.At(body)
	bl.Mov(acc, bl.Add(bl.Xor(acc, i), acc))
	bl.AddITo(i, i, 1)
	bl.Br(head)
	bl.At(exit)
	bl.Ret(acc)
	prog := ir.NewProgram()
	prog.Add(bl.Finish())

	m, err := New(prog, WithConfig(Config{MaxSteps: 1 << 62}))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := m.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMachineThroughput measures end-to-end interpreter throughput in
// simulated instructions per second on a mixed workload: pointer-chasing
// loads, stores, ALU work and branches in roughly the proportions the paper
// workloads exhibit. The instrs/s metric is what cmd/interpbench records in
// BENCH_interp.json so later PRs can track the perf trajectory.
func BenchmarkMachineThroughput(b *testing.B) {
	const nodes = 1 << 12
	bl := ir.NewBuilder("main")
	head := bl.Block("head")
	body := bl.Block("body")
	even := bl.Block("even")
	odd := bl.Block("odd")
	tail := bl.Block("tail")
	exit := bl.Block("exit")
	n := bl.Const(int64(b.N))
	i := bl.Const(0)
	base := bl.Const(0x4000_0000)
	p := bl.Const(0x4000_0000)
	acc := bl.Const(0)
	bl.Br(head)
	bl.At(head)
	bl.CondBr(bl.CmpLT(i, n), body, exit)
	bl.At(body)
	v := bl.Load(p, 0) // next pointer
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

	m, err := New(prog, WithConfig(Config{MaxSteps: 1 << 62}))
	if err != nil {
		b.Fatal(err)
	}
	// Scatter "next" pointers through the node array so the loads wander.
	for k := uint64(0); k < nodes; k++ {
		m.Mem.Store(0x4000_0000+k*64, int64((k*2654435761)%nodes))
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := m.Run(); err != nil {
		b.Fatal(err)
	}
	st := m.Stats()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(st.Instrs)/secs, "instrs/s")
	}
	b.ReportMetric(float64(st.Instrs)/float64(b.N), "instrs/op")
}

// BenchmarkInterpreterMemory measures interpretation with one load per
// iteration through the cache hierarchy.
func BenchmarkInterpreterMemory(b *testing.B) {
	bl := ir.NewBuilder("main")
	head := bl.Block("head")
	body := bl.Block("body")
	exit := bl.Block("exit")
	n := bl.Const(int64(b.N))
	i := bl.Const(0)
	p := bl.Const(0x4000_0000)
	acc := bl.Const(0)
	bl.Br(head)
	bl.At(head)
	bl.CondBr(bl.CmpLT(i, n), body, exit)
	bl.At(body)
	v := bl.Load(p, 0)
	bl.Mov(acc, bl.Add(acc, v.Dst))
	bl.AddITo(p, p, 64)
	bl.AddITo(i, i, 1)
	bl.Br(head)
	bl.At(exit)
	bl.Ret(acc)
	prog := ir.NewProgram()
	prog.Add(bl.Finish())

	m, err := New(prog, WithConfig(Config{MaxSteps: 1 << 62}))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := m.Run(); err != nil {
		b.Fatal(err)
	}
}

// arenaLanes returns the lanes the prefetcher arena attaches to an
// Itanium primary without a prefetcher: the small hierarchy's baseline,
// then every registered scheme on each hierarchy with the collector col
// returns for the cell's name ("base|rpt"). Each of the nine keeps a
// hierarchy of its own.
func arenaLanes(col func(name string) *obs.Collector) []Lane {
	small := cache.HierarchyConfig{
		Levels: []cache.Config{
			{Name: "L1D", Size: 4 << 10, Assoc: 2, LineSize: 64, HitLatency: 2},
			{Name: "L2", Size: 32 << 10, Assoc: 4, LineSize: 64, HitLatency: 12},
		},
		MemLatency:   160,
		StoreLatency: 2,
		MaxInFlight:  8,
	}
	lanes := []Lane{{Hierarchy: small}}
	for _, h := range []struct {
		name string
		cfg  cache.HierarchyConfig
	}{{"base", cache.ItaniumConfig()}, {"small", small}} {
		for _, scheme := range hwpf.Schemes() {
			scheme := scheme
			lanes = append(lanes, Lane{Hierarchy: h.cfg, Obs: col(h.name + "|" + scheme),
				NewHWPrefetch: func() HWPrefetcher {
					p, _ := hwpf.NewScheme(scheme, hwpf.Config{})
					return p
				}})
		}
	}
	return lanes
}

// BenchmarkLaneFanOut measures the lane fan-out on an arena-shaped
// machine (arenaLanes) walking a pointer chain whose runs of three
// consecutive nodes end in a scattered jump, and reports the time per
// program load, which every lane replays.
func BenchmarkLaneFanOut(b *testing.B) {
	const nodes = 1 << 14
	const base = 0x4000_0000
	bl := ir.NewBuilder("main")
	head, body, exit := bl.Block("head"), bl.Block("body"), bl.Block("exit")
	n := bl.Const(int64(b.N))
	i := bl.Const(0)
	p := bl.Const(base)
	bl.Br(head)
	bl.At(head)
	bl.CondBr(bl.CmpLT(i, n), body, exit)
	bl.At(body)
	bl.LoadTo(p, p, 0)
	bl.AddITo(i, i, 1)
	bl.Br(head)
	bl.At(exit)
	bl.Ret(p)
	prog := ir.NewProgram()
	prog.Add(bl.Finish())

	untraced := func(string) *obs.Collector { return obs.NewCollector(nil) }
	m, err := New(prog, WithConfig(Config{MaxSteps: 1 << 62}), WithLanes(arenaLanes(untraced)...))
	if err != nil {
		b.Fatal(err)
	}
	for k := uint64(0); k < nodes; k++ {
		next := (k + 1) % nodes
		if k%4 == 3 {
			next = k * 2654435761 % nodes
		}
		m.Mem.Store(base+k*64, int64(base+next*64))
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := m.Run(); err != nil {
		b.Fatal(err)
	}
	if loads := m.Stats().LoadRefs; loads > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(loads), "ns/load")
	}
}
