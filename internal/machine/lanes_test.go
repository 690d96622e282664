package machine

import (
	"reflect"
	"strings"
	"testing"

	"stridepf/internal/cache"
	"stridepf/internal/ir"
	"stridepf/internal/obs"
)

// hookedSumProgram is sumProgram with a hook fed by every value load,
// which the translator fuses into its load+hook superinstruction, and a
// final unfused hook on the sum, both under hook ID 7; with prefetch set,
// each iteration first prefetches four nodes ahead.
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

// clockHook charges cost per call and records the clock each call sees.
type clockHook struct {
	cost uint64
	seen []uint64
}

func (h *clockHook) fn(m *Machine, _ []int64) {
	if m.Now() != m.Stats().Cycles {
		panic("Now and Stats().Cycles disagree inside a hook")
	}
	h.seen = append(h.seen, m.Now())
	m.AddCycles(h.cost)
}

// TestLaneHooksChargeLaneClock: each lane's hook charges and reads the
// lane's own clock, so every lane sees the clocks and ends at the cycle
// count of a standalone run with its hook, whether it shares the primary's
// hierarchy or keeps its own: for another config, or because software
// prefetches are in flight, whose timeliness then differs per lane.
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
		t.Run(tc.name, func(t *testing.T) {
			prog := hookedSumProgram(tc.prefetch)
			standalone := func(cost uint64, hier cache.HierarchyConfig) (*clockHook, Stats) {
				m, err := New(prog, WithHierarchy(hier))
				if err != nil {
					t.Fatal(err)
				}
				h := &clockHook{cost: cost}
				m.Register(7, h.fn)
				buildList(m, 40)
				if _, err := m.Run(); err != nil {
					t.Fatal(err)
				}
				return h, m.Stats()
			}

			hooks := make([]*clockHook, len(costs))
			var lanes []Lane
			for i, c := range costs {
				hooks[i] = &clockHook{cost: c}
				if i > 0 {
					lanes = append(lanes, Lane{Hierarchy: tc.hier, Hooks: map[int64]HookFunc{7: hooks[i].fn}})
				}
			}
			m, err := New(prog, WithLanes(lanes...))
			if err != nil {
				t.Fatal(err)
			}
			m.Register(7, hooks[0].fn)
			buildList(m, 40)
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
			got := []Stats{m.Stats()}
			for i, v := range m.Lanes() {
				if shared := v.Hier == m.Hier; shared != tc.shared {
					t.Fatalf("lane %d shares the primary's hierarchy: %v", i, shared)
				}
				got = append(got, v.Stats)
			}
			for i, c := range costs {
				hier := cache.HierarchyConfig{}
				if i > 0 {
					hier = tc.hier
				}
				want, st := standalone(c, hier)
				if got[i] != st {
					t.Errorf("run %d (cost %d): stats %+v, standalone %+v", i, c, got[i], st)
				}
				if !reflect.DeepEqual(hooks[i].seen, want.seen) {
					t.Errorf("run %d (cost %d): hook clocks %v, standalone %v", i, c, hooks[i].seen, want.seen)
				}
			}
		})
	}
}

// TestLaneUnboundHookFailsUpfront: a lane that leaves a hook ID unbound
// fails Run before the first instruction, with the primary's
// unregistered-hook error naming the lane.
func TestLaneUnboundHookFailsUpfront(t *testing.T) {
	nop := func(*Machine, []int64) {}
	m, err := New(hookedSumProgram(false), WithLanes(Lane{Hooks: map[int64]HookFunc{7: nop}}, Lane{}))
	if err != nil {
		t.Fatal(err)
	}
	m.Register(7, nop)
	_, err = m.Run()
	if err == nil {
		t.Fatal("a lane with an unbound hook ran")
	}
	for _, want := range []string{"lane 1", "hook 7", "main"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	if got := m.Stats().Instrs; got != 0 {
		t.Errorf("executed %d instructions before failing; want 0", got)
	}
}

type nopPrefetcher struct{}

func (nopPrefetcher) Observe(uint64, uint64, *cache.Hierarchy, uint64) {}

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
		opts     []Option
		lane     Lane
		shared   bool
	}{
		{name: "plain", shared: true},
		{name: "itanium-explicit", lane: Lane{Hierarchy: cache.ItaniumConfig()}, shared: true},
		{name: "machine-prefetcher", opts: []Option{WithHWPrefetchFactory(nopFactory)}},
		{name: "lane-prefetcher", lane: Lane{NewHWPrefetch: nopFactory}},
		{name: "lane-collector", lane: Lane{Obs: obs.NewCollector(nil)}},
		{name: "other-hierarchy", lane: Lane{Hierarchy: small}},
		{name: "software-prefetch", prefetch: true},
		{name: "software-prefetch-disabled", prefetch: true, opts: []Option{WithDisablePrefetch()}, shared: true},
	} {
		m, err := New(hookedSumProgram(tc.prefetch), append(tc.opts, WithLanes(tc.lane))...)
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
