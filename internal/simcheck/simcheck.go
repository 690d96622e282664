// Package simcheck is the correctness-tooling subsystem: it drives the
// simulator's shadow models, differential comparisons and metamorphic
// properties over randomly generated programs, and shrinks any failure to a
// minimal reproducer.
//
// The simulator carries several optimizations that are easy to get subtly
// wrong — the cache's MRU-way probe, the gated in-flight table, the
// memory's MRU-page cache, the sampled profiler, the bounded LFU buffers.
// Each check here pins one of them against an independent oracle:
//
//   - CheckShadowLockstep runs generated programs with naive shadow models
//     of the cache hierarchy and flat memory cross-checking every access
//     (see cache/shadow.go and mem/shadow.go), clean and instrumented.
//   - CheckPrefetchNeutrality asserts that prefetch issue is architecturally
//     invisible: disabling it may change only cycle counts, never results,
//     memory contents or reference counts.
//   - The metamorphic checks (metamorphic.go) assert sampling invariance on
//     regular-stride kernels, profile-merge commutativity/associativity,
//     and LFU agreement with a brute-force exact profiler.
//
// Failures carry a replaying (seed, config) pair; Reduce (reduce.go)
// shrinks it. Command simcheck is the CLI driver.
package simcheck

import (
	"errors"
	"fmt"

	"stridepf/internal/cache"
	"stridepf/internal/instrument"
	"stridepf/internal/ir"
	"stridepf/internal/irgen"
	"stridepf/internal/machine"
	"stridepf/internal/mem"
)

// IsDivergence reports whether err wraps a shadow-model divergence (from
// either the cache hierarchy or the flat memory).
func IsDivergence(err error) bool {
	var ce *cache.DivergenceError
	var me *mem.DivergenceError
	return errors.As(err, &ce) || errors.As(err, &me)
}

// runResult captures one execution of a generated program.
type runResult struct {
	Ret         int64
	Stats       machine.Stats
	Fingerprint uint64
	LoadCounts  map[machine.LoadKey]uint64
}

// runProg executes prog (which must define a parameterless main) under
// cfg. When Run fails the result still describes the machine as the run
// left it, so differential checks can compare aborted runs too.
func runProg(prog *ir.Program, cfg machine.Config) (runResult, error) {
	m, err := machine.New(prog, cfg)
	if err != nil {
		return runResult{}, err
	}
	ret, err := m.Run()
	return runResult{
		Ret:         ret,
		Stats:       m.Stats(),
		Fingerprint: m.Mem.Fingerprint(),
		LoadCounts:  m.LoadCounts(),
	}, err
}

// CheckShadowLockstep generates a program from (seed, cfg) and executes it
// with the shadow models enabled, clean and instrumented. The shadow models
// abort the run on the first per-access mismatch; beyond that, a
// self-checked run must be observably identical to an unchecked one, and an
// instrumented run must preserve the program's result.
func CheckShadowLockstep(seed uint64, cfg irgen.Config) error {
	prog := irgen.Generate(seed, cfg)

	base, err := runProg(prog, machine.Config{})
	if err != nil {
		return fmt.Errorf("baseline run: %w", err)
	}
	checked, err := runProg(prog, machine.Config{SelfCheck: true})
	if err != nil {
		return fmt.Errorf("self-checked run: %w", err)
	}
	if checked.Ret != base.Ret {
		return fmt.Errorf("self-check changed result: ret=%d, baseline ret=%d", checked.Ret, base.Ret)
	}
	if checked.Fingerprint != base.Fingerprint {
		return fmt.Errorf("self-check changed memory: fingerprint=%#x, baseline=%#x",
			checked.Fingerprint, base.Fingerprint)
	}
	if checked.Stats != base.Stats {
		return fmt.Errorf("self-check changed statistics: %+v, baseline %+v", checked.Stats, base.Stats)
	}

	// Instrumented execution drives the same shadows through the profiling
	// runtime's counter loads/stores and hook calls.
	res, err := instrument.Instrument(prog, instrument.Options{Method: instrument.NaiveAll})
	if err != nil {
		return fmt.Errorf("instrument: %w", err)
	}
	m, err := machine.New(res.Prog, machine.Config{SelfCheck: true, Hooks: res.Hooks()})
	if err != nil {
		return err
	}
	ret, err := m.Run()
	if err != nil {
		return fmt.Errorf("instrumented self-checked run: %w", err)
	}
	if ret != base.Ret {
		return fmt.Errorf("instrumentation changed result: ret=%d, clean ret=%d", ret, base.Ret)
	}
	return nil
}

// CheckPrefetchNeutrality generates a program from (seed, cfg) and executes
// it with prefetch issue enabled and disabled. Prefetches are performance
// hints: the two runs must agree on the result, the final memory image and
// every reference count — only cycle counts may differ.
func CheckPrefetchNeutrality(seed uint64, cfg irgen.Config) error {
	prog := irgen.Generate(seed, cfg)

	on, err := runProg(prog, machine.Config{})
	if err != nil {
		return fmt.Errorf("prefetch-on run: %w", err)
	}
	off, err := runProg(prog, machine.Config{DisablePrefetch: true})
	if err != nil {
		return fmt.Errorf("prefetch-off run: %w", err)
	}
	if on.Ret != off.Ret {
		return fmt.Errorf("prefetch changed result: on=%d off=%d", on.Ret, off.Ret)
	}
	if on.Fingerprint != off.Fingerprint {
		return fmt.Errorf("prefetch changed memory: on=%#x off=%#x", on.Fingerprint, off.Fingerprint)
	}
	no, noff := on.Stats, off.Stats
	no.Cycles, noff.Cycles = 0, 0 // the one legitimate difference
	if no != noff {
		return fmt.Errorf("prefetch changed reference counts: on=%+v off=%+v", no, noff)
	}
	if len(on.LoadCounts) != len(off.LoadCounts) {
		return fmt.Errorf("prefetch changed load set: on=%d loads, off=%d loads",
			len(on.LoadCounts), len(off.LoadCounts))
	}
	for k, c := range on.LoadCounts {
		if off.LoadCounts[k] != c {
			return fmt.Errorf("prefetch changed load count of %s#%d: on=%d off=%d",
				k.Func, k.ID, c, off.LoadCounts[k])
		}
	}
	return nil
}
