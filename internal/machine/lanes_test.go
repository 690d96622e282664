package machine

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"stridepf/internal/cache"
	"stridepf/internal/ir"
	"stridepf/internal/obs"
)

// hookedSumProgram is sumProgram with a hook fed by every value load and a
// final hook on the sum, both under hook ID 7; with prefetch set, each
// iteration first prefetches four nodes ahead.
func hookedSumProgram(prefetch bool) *ir.Program {
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
	if prefetch {
		b.Prefetch(cur, 64)
	}
	v := b.Load(cur, 0)
	b.Hook(7, v.Dst)
	b.Mov(sum, b.Add(sum, v.Dst))
	b.LoadTo(cur, cur, 8)
	b.Br(head)

	b.At(exit)
	b.Hook(7, sum)
	b.Ret(sum)
	p.Add(b.Finish())
	return p
}

// clockHook charges cost per call and, unless blind, records the clock
// each call sees. A blind hook never reads the clock, so its charges to a
// lane of the fan-out wait in the record block between references.
type clockHook struct {
	cost  uint64
	blind bool
	seen  []uint64
}

func (h *clockHook) fn(m *Machine, _ []int64) {
	if !h.blind {
		if m.Now() != m.Stats().Cycles {
			panic("Now and Stats().Cycles disagree inside a hook")
		}
		h.seen = append(h.seen, m.Now())
	}
	m.AddCycles(h.cost)
}

// TestLaneHooksChargeLaneClock: each lane's hook charges and reads the
// lane's own clock, so every lane sees the clocks and ends at the cycle
// count of a standalone run with its hook, whether it shares the primary's
// hierarchy or keeps its own: for another config, or because software
// prefetches are in flight, whose timeliness then differs per lane. Blind
// hooks, which only charge, run over a list spanning several record
// blocks, so the charges of lanes with their own hierarchy replay mid-block.
func TestLaneHooksChargeLaneClock(t *testing.T) {
	small := cache.HierarchyConfig{
		Levels:     []cache.Config{{Name: "L1D", Size: 1 << 10, Assoc: 2, LineSize: 64, HitLatency: 3}},
		MemLatency: 90,
	}
	costs := []uint64{5, 40, 0}
	for _, tc := range []struct {
		name     string
		hier     cache.HierarchyConfig
		prefetch bool
		shared   bool
	}{
		{name: "shared", shared: true},
		{name: "own", hier: small},
		{name: "prefetch", prefetch: true},
	} {
		for _, blind := range []bool{false, true} {
			name, nodes := tc.name, 40
			if blind {
				name, nodes = tc.name+"-blind", laneBlock
			}
			t.Run(name, func(t *testing.T) {
				testLaneHooks(t, hookedSumProgram(tc.prefetch), tc.hier, tc.shared, costs, blind, nodes)
			})
		}
	}
}

// testLaneHooks runs prog over an n-node list with a clockHook of each
// cost, the first on the primary and the rest on lanes of hierarchy hier,
// and compares every run with a standalone one.
func testLaneHooks(t *testing.T, prog *ir.Program, hier cache.HierarchyConfig, shared bool, costs []uint64, blind bool, n int) {
	standalone := func(cost uint64, hier cache.HierarchyConfig) (*clockHook, Stats) {
		h := &clockHook{cost: cost, blind: blind}
		m, err := New(prog, Config{Hierarchy: hier, Hooks: map[int64]HookFunc{7: h.fn}})
		if err != nil {
			t.Fatal(err)
		}
		buildList(m, n)
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return h, m.Stats()
	}

	hooks := make([]*clockHook, len(costs))
	var lanes []Lane
	for i, c := range costs {
		hooks[i] = &clockHook{cost: c, blind: blind}
		if i > 0 {
			lanes = append(lanes, Lane{Hierarchy: hier, Hooks: map[int64]HookFunc{7: hooks[i].fn}})
		}
	}
	m, err := New(prog, Config{Lanes: lanes, Hooks: map[int64]HookFunc{7: hooks[0].fn}})
	if err != nil {
		t.Fatal(err)
	}
	buildList(m, n)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if blind && m.Stats().LoadRefs < 2*laneBlock {
		t.Fatalf("%d loads do not span several record blocks", m.Stats().LoadRefs)
	}
	got := []Stats{m.Stats()}
	for i, v := range m.Lanes() {
		if s := v.Hier == m.Hier; s != shared {
			t.Fatalf("lane %d shares the primary's hierarchy: %v", i, s)
		}
		got = append(got, v.Stats)
	}
	for i, c := range costs {
		h := cache.HierarchyConfig{}
		if i > 0 {
			h = hier
		}
		want, st := standalone(c, h)
		if got[i] != st {
			t.Errorf("run %d (cost %d): stats %+v, standalone %+v", i, c, got[i], st)
		}
		if !reflect.DeepEqual(hooks[i].seen, want.seen) {
			t.Errorf("run %d (cost %d): hook clocks %v, standalone %v", i, c, hooks[i].seen, want.seen)
		}
	}
}

// TestLaneUnboundHookFailsUpfront: a lane that leaves a hook ID unbound
// fails New with the primary's unbound-hook error naming the lane.
func TestLaneUnboundHookFailsUpfront(t *testing.T) {
	_, err := New(hookedSumProgram(false), Config{Hooks: nopHooks, Lanes: []Lane{{Hooks: nopHooks}, {}}})
	if err == nil {
		t.Fatal("New accepted a lane with an unbound hook")
	}
	for _, want := range []string{"lane 1", "hook 7", "main"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// nopHooks binds hookedSumProgram's hook to a no-op.
var nopHooks = map[int64]HookFunc{7: func(*Machine, []int64) {}}

type nopPrefetcher struct{}

func (nopPrefetcher) Train(uint64, uint64) (uint64, bool) { return 0, false }

// TestLaneSharesHierarchyOnlyWithoutPrefetch pins the sharing rule: a lane
// shares the primary's hierarchy, and stays out of the access fan-out,
// exactly when no prefetch can ever be in flight.
func TestLaneSharesHierarchyOnlyWithoutPrefetch(t *testing.T) {
	nopFactory := func() HWPrefetcher { return nopPrefetcher{} }
	small := cache.ItaniumConfig()
	small.MemLatency = 200
	for _, tc := range []struct {
		name     string
		prefetch bool
		cfg      Config
		lane     Lane
		shared   bool
	}{
		{name: "plain", shared: true},
		{name: "itanium-explicit", lane: Lane{Hierarchy: cache.ItaniumConfig()}, shared: true},
		{name: "machine-prefetcher", cfg: Config{NewHWPrefetch: nopFactory}},
		{name: "lane-prefetcher", lane: Lane{NewHWPrefetch: nopFactory}},
		{name: "lane-collector", lane: Lane{Obs: obs.NewCollector(nil)}},
		{name: "other-hierarchy", lane: Lane{Hierarchy: small}},
		{name: "software-prefetch", prefetch: true},
		{name: "software-prefetch-disabled", prefetch: true, cfg: Config{DisablePrefetch: true}, shared: true},
	} {
		tc.lane.Hooks = nopHooks
		tc.cfg.Hooks, tc.cfg.Lanes = nopHooks, []Lane{tc.lane}
		m, err := New(hookedSumProgram(tc.prefetch), tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if shared := m.Lanes()[0].Hier == m.Hier; shared != tc.shared {
			t.Errorf("%s: lane shares the primary's hierarchy: %v, want %v", tc.name, shared, tc.shared)
		}
		if fanned := m.fan != nil; fanned == tc.shared {
			t.Errorf("%s: lane in the access fan-out: %v, want %v", tc.name, fanned, !tc.shared)
		}
	}
}

// laneAccount is a memory system's observable account of a run: its
// statistics with its own clock, its hierarchy's counters and its closed
// collector.
type laneAccount struct {
	Stats Stats
	Hier  [7]uint64
	Obs   obs.Collector
}

func accountOf(st Stats, h *cache.Hierarchy, col *obs.Collector) laneAccount {
	a := laneAccount{Stats: st, Hier: [7]uint64{h.Loads, h.Stores, h.Prefetches,
		h.PrefetchDrops, h.PrefetchLate, h.PrefetchUseful, h.DemandMissCycles}}
	if col != nil {
		a.Obs = *col
	}
	return a
}

// TestLanesStopMidBlock: a run that stops on its instruction budget or on
// an interrupt, with references and blind hook charges still waiting in
// the record block, leaves every lane where a standalone run of its
// configuration stopped at the same instruction. The interrupt channel is
// closed before the run, so every run stops at the first block entry past
// 64Ki instructions.
func TestLanesStopMidBlock(t *testing.T) {
	const nodes = 12000
	prog := hookedSumProgram(true)
	closed := make(chan struct{})
	close(closed)
	lanes := arenaLanes(func(string) *obs.Collector { return obs.NewCollector(nil) })
	for _, stop := range []struct {
		name string
		cfg  Config
		err  error
	}{
		{"budget", Config{MaxSteps: 5*nodes + 777}, ErrMaxSteps},
		{"interrupt", Config{Interrupt: closed}, ErrInterrupted},
	} {
		t.Run(stop.name, func(t *testing.T) {
			// run runs prog under stop's config with the memory system cfg
			// brings and a blind hook of the given cost.
			run := func(cost uint64, cfg Config) *Machine {
				cfg.MaxSteps, cfg.Interrupt = stop.cfg.MaxSteps, stop.cfg.Interrupt
				h := &clockHook{cost: cost, blind: true}
				cfg.Hooks = map[int64]HookFunc{7: h.fn}
				m, err := New(prog, cfg)
				if err != nil {
					t.Fatal(err)
				}
				buildList(m, nodes)
				if _, err := m.Run(); !errors.Is(err, stop.err) {
					t.Fatalf("run error %v, want %v", err, stop.err)
				}
				m.FinishObs()
				return m
			}
			// Fresh collectors and hooks of cost 3+i for each lane.
			var mine []Lane
			for i, l := range lanes {
				if l.Obs != nil {
					l.Obs = obs.NewCollector(nil)
				}
				h := &clockHook{cost: uint64(3 + i), blind: true}
				l.Hooks = map[int64]HookFunc{7: h.fn}
				mine = append(mine, l)
			}
			m := run(2, Config{Lanes: mine})
			// The records: each load, each software prefetch the lanes saw
			// (counted by the lane without a prefetcher), and for each hook
			// call a give-back and a charge per lane.
			st := m.Stats()
			recs := st.LoadRefs + m.Lanes()[0].Hier.Prefetches + 2*uint64(len(mine))*st.HookCalls
			if recs < 2*laneBlock || recs%laneBlock == 0 {
				t.Fatalf("stopped after %d records: not mid-block after several blocks", recs)
			}
			for i, v := range m.Lanes() {
				var col *obs.Collector
				if mine[i].Obs != nil {
					col = obs.NewCollector(nil)
				}
				want := run(uint64(3+i), Config{Hierarchy: mine[i].Hierarchy,
					NewHWPrefetch: mine[i].NewHWPrefetch, Obs: col})
				got := accountOf(v.Stats, v.Hier, mine[i].Obs)
				if w := accountOf(want.Stats(), want.Hier, col); !reflect.DeepEqual(got, w) {
					t.Errorf("lane %d differs from its standalone run:\nlane       %+v\nstandalone %+v", i, got, w)
				}
			}
		})
	}
}

// lineLoop loads, trip times, one word from each of eight consecutive
// cache lines in turn.
func lineLoop(trip int64) *ir.Program {
	b := ir.NewBuilder("main")
	head, body, exit := b.Block("head"), b.Block("body"), b.Block("exit")
	i := b.Const(0)
	sum := b.Const(0)
	n := b.Const(trip)
	b.Br(head)
	b.At(head)
	b.CondBr(b.CmpLT(i, n), body, exit)
	b.At(body)
	off := b.Mul(b.And(i, b.Const(7)), b.Const(64))
	v := b.Load(b.Add(off, b.Const(0x4000_0000)), 0)
	b.Mov(sum, b.Add(sum, v.Dst))
	b.AddITo(i, i, 1)
	b.Br(head)
	b.At(exit)
	b.Ret(sum)
	p := ir.NewProgram()
	p.Add(b.Finish())
	return p
}

// TestLaneReplayDivergence: with the MRU probe broken, a lane whose
// hierarchy has a single set diverges from its shadow model on its second
// line, while the primary's eight lines sit in sets of their own and never
// do. The divergence is raised while the lane replays — at the end of the
// run, or mid-run when a block fills — and Run returns it as an error;
// Lanes and FinishObs still answer afterwards.
func TestLaneReplayDivergence(t *testing.T) {
	cache.SetBrokenMRUProbe(true)
	defer cache.SetBrokenMRUProbe(false)
	oneSet := cache.HierarchyConfig{
		Levels:     []cache.Config{{Name: "L1D", Size: 128, Assoc: 2, LineSize: 64, HitLatency: 2}},
		MemLatency: 50,
	}
	for _, trip := range []int64{20, 2 * laneBlock} {
		alone, err := New(lineLoop(trip), Config{SelfCheck: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := alone.Run(); err != nil {
			t.Fatalf("trip %d: the primary diverges on its own: %v", trip, err)
		}
		m, err := New(lineLoop(trip), Config{SelfCheck: true,
			Lanes: []Lane{{Hierarchy: oneSet, Obs: obs.NewCollector(nil)}}})
		if err != nil {
			t.Fatal(err)
		}
		_, err = m.Run()
		var d *cache.DivergenceError
		if !errors.As(err, &d) {
			t.Fatalf("trip %d: Run error %v, want a cache divergence", trip, err)
		}
		if trip > laneBlock && m.Stats().LoadRefs >= uint64(trip) {
			t.Errorf("trip %d: the run went on to its end after a block's replay diverged", trip)
		}
		if len(m.Lanes()) != 1 {
			t.Fatalf("trip %d: %d lane views, want 1", trip, len(m.Lanes()))
		}
		m.FinishObs()
	}
}

// TestLaneTraceEquivalence: the arena's lanes and their hooks emit into
// one shared trace, unsampled. Each lane's events, picked out by its run
// label, equal in order those of a standalone run of its configuration.
// The hook reads the clock for an event on every hundredth node, so lanes
// also replay from inside hooks.
func TestLaneTraceEquivalence(t *testing.T) {
	const nodes = 1000
	hook := func(m *Machine, args []int64) {
		if args[0]%100 == 0 {
			m.Obs().Emit(obs.TraceEvent{Cycle: m.Now(), Kind: "hook"})
		}
		m.AddCycles(4)
	}
	events := func(buf *bytes.Buffer) map[string][]obs.TraceEvent {
		out := map[string][]obs.TraceEvent{}
		dec := json.NewDecoder(buf)
		for {
			var ev obs.TraceEvent
			if err := dec.Decode(&ev); err == io.EOF {
				return out
			} else if err != nil {
				t.Fatal(err)
			}
			out[ev.Run] = append(out[ev.Run], ev)
		}
	}
	run := func(cfg Config) *Machine {
		cfg.Hooks = map[int64]HookFunc{7: hook}
		m, err := New(hookedSumProgram(true), cfg)
		if err != nil {
			t.Fatal(err)
		}
		buildList(m, nodes)
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		m.FinishObs()
		return m
	}

	var shared bytes.Buffer
	tr := obs.NewTrace(&shared, obs.TraceConfig{SampleEvery: 1})
	named := map[*obs.Collector]string{}
	lanes := arenaLanes(func(name string) *obs.Collector {
		col := obs.NewCollector(tr.WithRun(name))
		named[col] = name
		return col
	})
	configs := map[string]Config{"primary": {}}
	for i, l := range lanes {
		lanes[i].Hooks = map[int64]HookFunc{7: hook}
		if name, ok := named[l.Obs]; ok {
			configs[name] = Config{Hierarchy: l.Hierarchy, NewHWPrefetch: l.NewHWPrefetch}
		}
	}
	run(Config{Obs: obs.NewCollector(tr.WithRun("primary")), Lanes: lanes})
	got := events(&shared)

	for name, cfg := range configs {
		var own bytes.Buffer
		cfg.Obs = obs.NewCollector(obs.NewTrace(&own, obs.TraceConfig{SampleEvery: 1}).WithRun(name))
		run(cfg)
		want := events(&own)[name]
		if len(want) < 100 {
			t.Fatalf("%s: a standalone run emits only %d events", name, len(want))
		}
		if !reflect.DeepEqual(got[name], want) {
			t.Errorf("%s: %d lane events differ from the %d of a standalone run", name, len(got[name]), len(want))
		}
	}
}
