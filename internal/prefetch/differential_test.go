package prefetch

import (
	"testing"
	"testing/quick"

	"stridepf/internal/instrument"
	"stridepf/internal/ir"
	"stridepf/internal/irgen"
	"stridepf/internal/machine"
	"stridepf/internal/profile"
)

// TestDifferentialPrefetch verifies over random programs that the feedback
// pass preserves semantics under every option combination: prefetching (of
// any flavour) may never change what a program computes.
func TestDifferentialPrefetch(t *testing.T) {
	optionSets := []Options{
		{},
		{EnableWSST: true},
		{Heuristic: TripBased},
		{Heuristic: FixedDistance, MaxDistance: 16},
		{EnableIndirect: true},
		{OutLoopDynamic: true, EnableWSST: true, EnableIndirect: true},
		{Thresholds: Thresholds{
			FreqThreshold: 1, TripThreshold: 1,
			SSST: 0.10, PMST: 0.05, PMSTDiff: 0.01, WSST: 0.01, WSSTDiff: 0.001,
		}, EnableWSST: true}, // aggressive thresholds prefetch nearly everything
	}

	run := func(prog *ir.Program, res *instrument.Result) (int64, bool) {
		cfg := machine.Config{MaxSteps: 50_000_000}
		if res != nil {
			cfg.Hooks = res.Hooks()
		}
		m, err := machine.New(prog, cfg)
		if err != nil {
			return 0, false
		}
		v, err := m.Run()
		if err != nil {
			return 0, false
		}
		return v, true
	}

	prop := func(seed uint64) bool {
		prog := irgen.Generate(seed, irgen.Config{})
		want, ok := run(prog, nil)
		if !ok {
			return false
		}

		// Collect a real profile so the classifier sees genuine data.
		inst, err := instrument.Instrument(prog, instrument.Options{Method: instrument.NaiveAll})
		if err != nil {
			return false
		}
		m, err := machine.New(inst.Prog, machine.Config{MaxSteps: 50_000_000, Hooks: inst.Hooks()})
		if err != nil {
			return false
		}
		if _, err := m.Run(); err != nil {
			return false
		}
		prof := &profile.Combined{
			Edge:   inst.ExtractEdgeProfile(m),
			Stride: profile.NewStrideProfile(inst.StrideSummaries()),
		}

		for i, opts := range optionSets {
			res, err := Apply(prog, prof, opts)
			if err != nil {
				t.Logf("seed %d opts %d: %v", seed, i, err)
				return false
			}
			if err := ir.VerifyProgram(res.Prog); err != nil {
				t.Logf("seed %d opts %d: invalid output: %v", seed, i, err)
				return false
			}
			got, ok := run(res.Prog, nil)
			if !ok || got != want {
				t.Logf("seed %d opts %d: checksum %d != %d (ok=%v)", seed, i, got, want, ok)
				return false
			}
		}
		return true
	}
	n := 25
	if testing.Short() {
		n = 5
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: n}); err != nil {
		t.Error(err)
	}
}
