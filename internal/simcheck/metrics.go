package simcheck

import (
	"fmt"

	"stridepf/internal/irgen"
	"stridepf/internal/machine"
	"stridepf/internal/obs"
)

// CheckMetricsNeutrality generates a program from (seed, cfg) and executes
// it with and without the prefetch-effectiveness collector attached.
// Observation must be strictly passive: the two runs must agree on the
// result, the final memory image, every statistic *including the cycle
// count*, and every reference count. The populated collector must also
// satisfy the lifecycle identity (every issued prefetch ends in exactly one
// outcome bucket), and attaching the collector on top of the shadow models
// must not perturb their lockstep.
func CheckMetricsNeutrality(seed uint64, cfg irgen.Config) error {
	prog := irgen.Generate(seed, cfg)

	base, err := runProg(prog, machine.Config{})
	if err != nil {
		return fmt.Errorf("baseline run: %w", err)
	}

	// Observed run. Built inline rather than through runProg because the
	// observability accounting must be closed with FinishObs before the
	// collector can reconcile.
	col := obs.NewCollector(nil)
	m, err := machine.New(prog, machine.Config{Obs: col})
	if err != nil {
		return err
	}
	ret, err := m.Run()
	if err != nil {
		return fmt.Errorf("metrics run: %w", err)
	}
	m.FinishObs()

	if ret != base.Ret {
		return fmt.Errorf("metrics changed result: ret=%d, baseline ret=%d", ret, base.Ret)
	}
	if fp := m.Mem.Fingerprint(); fp != base.Fingerprint {
		return fmt.Errorf("metrics changed memory: fingerprint=%#x, baseline=%#x", fp, base.Fingerprint)
	}
	// Unlike prefetch neutrality, nothing may differ here — not even cycles.
	if st := m.Stats(); st != base.Stats {
		return fmt.Errorf("metrics changed statistics: %+v, baseline %+v", st, base.Stats)
	}
	counts := m.LoadCounts()
	if len(counts) != len(base.LoadCounts) {
		return fmt.Errorf("metrics changed load set: %d loads, baseline %d loads",
			len(counts), len(base.LoadCounts))
	}
	for k, c := range base.LoadCounts {
		if counts[k] != c {
			return fmt.Errorf("metrics changed load count of %s#%d: %d, baseline %d",
				k.Func, k.ID, counts[k], c)
		}
	}
	if err := col.Reconcile(); err != nil {
		return err
	}

	// The collector and the shadow models must compose: a self-checked run
	// with observation enabled must stay divergence-free and observably
	// identical to the baseline.
	checked, err := runProg(prog, machine.Config{Obs: obs.NewCollector(nil), SelfCheck: true})
	if err != nil {
		return fmt.Errorf("self-checked metrics run: %w", err)
	}
	if checked.Ret != base.Ret || checked.Fingerprint != base.Fingerprint || checked.Stats != base.Stats {
		return fmt.Errorf("metrics+self-check diverged from baseline: ret=%d/%d stats=%+v/%+v",
			checked.Ret, base.Ret, checked.Stats, base.Stats)
	}
	return nil
}
