package instrument

import (
	"testing"
	"testing/quick"

	"stridepf/internal/ir"
	"stridepf/internal/irgen"
	"stridepf/internal/machine"
)

// runProg executes prog (binding res's hooks, if any) and returns the
// checksum.
func runProg(t *testing.T, res *Result, prog *ir.Program) int64 {
	t.Helper()
	cfg := machine.Config{MaxSteps: 50_000_000}
	if res != nil {
		cfg.Hooks = res.Hooks()
	}
	m, err := machine.New(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	v, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestDifferentialInstrumentation verifies, over random programs, that
// every instrumentation method preserves program semantics: the
// instrumented binary computes the same checksum as the clean one, and its
// output still verifies. This is the pass-correctness property everything
// else rests on.
func TestDifferentialInstrumentation(t *testing.T) {
	methods := []Method{EdgeOnly, NaiveLoop, NaiveAll, EdgeCheck, BlockCheck}
	prop := func(seed uint64) bool {
		prog := irgen.Generate(seed, irgen.Config{})
		want := runProg(t, nil, prog)
		for _, method := range methods {
			res, err := Instrument(prog, Options{Method: method})
			if err != nil {
				t.Logf("seed %d method %v: %v", seed, method, err)
				return false
			}
			if err := ir.VerifyProgram(res.Prog); err != nil {
				t.Logf("seed %d method %v: output invalid: %v", seed, method, err)
				return false
			}
			if got := runProg(t, res, res.Prog); got != want {
				t.Logf("seed %d method %v: checksum %d != %d", seed, method, got, want)
				return false
			}
		}
		return true
	}
	n := 40
	if testing.Short() {
		n = 8
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: n}); err != nil {
		t.Error(err)
	}
}

// TestDifferentialEdgeCounts verifies that the extracted edge profile is
// flow-consistent on random programs: for every internal block, incoming
// edge counts equal outgoing edge counts (plus entries for the entry
// block, minus exits for return blocks).
func TestDifferentialEdgeCounts(t *testing.T) {
	prop := func(seed uint64) bool {
		prog := irgen.Generate(seed, irgen.Config{})
		res, err := Instrument(prog, Options{Method: EdgeOnly})
		if err != nil {
			return false
		}
		m, err := machine.New(res.Prog, machine.Config{MaxSteps: 50_000_000})
		if err != nil {
			return false
		}
		if _, err := m.Run(); err != nil {
			return false
		}
		ep := res.ExtractEdgeProfile(m)

		for name, f := range prog.Funcs {
			f.RebuildEdges()
			for _, b := range f.Blocks {
				var in, out uint64
				seenP := map[*ir.Block]bool{}
				for _, p := range b.Preds {
					if seenP[p] {
						continue
					}
					seenP[p] = true
					in += ep.EdgeCount(name, p, b)
				}
				if b.Index == 0 {
					in += ep.EntryCount(name)
				}
				succs := b.Succs()
				seenS := map[*ir.Block]bool{}
				for _, s := range succs {
					if seenS[s] {
						continue
					}
					seenS[s] = true
					out += ep.EdgeCount(name, b, s)
				}
				if len(succs) == 0 {
					// Return block: outgoing flow leaves the function; the
					// block's executions equal its incoming flow, which is
					// what BlockFreq reports. Nothing further to check.
					continue
				}
				if in != out {
					t.Logf("seed %d %s/%s: in=%d out=%d", seed, name, b.Name, in, out)
					return false
				}
			}
		}
		return true
	}
	n := 30
	if testing.Short() {
		n = 6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: n}); err != nil {
		t.Error(err)
	}
}
