package simcheck

import (
	"fmt"

	"stridepf/internal/hwpf"
	"stridepf/internal/irgen"
	"stridepf/internal/machine"
)

// CheckHWPFNeutrality generates a program from (seed, cfg) and, for every
// registered hardware-prefetcher scheme, pins the arena's two safety
// contracts against the baseline run:
//
//  1. Cycle-neutral when silenced: a prefetcher whose predictions are all
//     discarded (silenced) is trained on the full demand-load stream and
//     advances its state machines but issues nothing; the run must be
//     bit-identical to the baseline in every respect *including the cycle
//     count*.
//  2. Architecturally invisible when enabled: with the scheme actually
//     issuing prefetches, only cycle counts may change — results, final
//     memory image, instruction counts and per-load reference counts must
//     all match the baseline (the prefetch-neutrality oracle, reused).
//     Composing the scheme with the shadow models (Config.SelfCheck) must
//     stay divergence-free and change nothing at all relative to the
//     enabled run.
func CheckHWPFNeutrality(seed uint64, cfg irgen.Config) error {
	prog := irgen.Generate(seed, cfg)

	base, err := runProg(prog, machine.Config{})
	if err != nil {
		return fmt.Errorf("baseline run: %w", err)
	}

	for _, scheme := range hwpf.Schemes() {
		// (1) Silenced: training must be free.
		off, err := hwpf.NewScheme(scheme, hwpf.Config{})
		if err != nil {
			return err
		}
		offRun, err := runProg(prog, machine.Config{NewHWPrefetch: func() machine.HWPrefetcher { return silenced{off} }})
		if err != nil {
			return fmt.Errorf("%s silenced run: %w", scheme, err)
		}
		if err := diffRuns(scheme+" silenced", offRun, base); err != nil {
			return err
		}

		// (2) Enabled: prefetches may change cycles, nothing else.
		on, err := hwpf.NewScheme(scheme, hwpf.Config{})
		if err != nil {
			return err
		}
		onRun, err := runProg(prog, machine.Config{NewHWPrefetch: func() machine.HWPrefetcher { return on }})
		if err != nil {
			return fmt.Errorf("%s enabled run: %w", scheme, err)
		}
		if onRun.Ret != base.Ret {
			return fmt.Errorf("%s changed result: %d, baseline %d", scheme, onRun.Ret, base.Ret)
		}
		if onRun.Fingerprint != base.Fingerprint {
			return fmt.Errorf("%s changed memory: fingerprint %#x, baseline %#x",
				scheme, onRun.Fingerprint, base.Fingerprint)
		}
		sa, sb := onRun.Stats, base.Stats
		sa.Cycles, sb.Cycles = 0, 0
		if sa != sb {
			return fmt.Errorf("%s changed statistics beyond cycles: %+v, baseline %+v", scheme, sa, sb)
		}
		if len(onRun.LoadCounts) != len(base.LoadCounts) {
			return fmt.Errorf("%s changed load set: %d loads, baseline %d loads",
				scheme, len(onRun.LoadCounts), len(base.LoadCounts))
		}
		for k, c := range base.LoadCounts {
			if onRun.LoadCounts[k] != c {
				return fmt.Errorf("%s changed load count of %s#%d: %d, baseline %d",
					scheme, k.Func, k.ID, onRun.LoadCounts[k], c)
			}
		}

		// (2b) The scheme and the shadow models must compose: lockstep
		// holds, and the checked run is identical to the unchecked one.
		chk, err := hwpf.NewScheme(scheme, hwpf.Config{})
		if err != nil {
			return err
		}
		chkRun, err := runProg(prog, machine.Config{NewHWPrefetch: func() machine.HWPrefetcher { return chk }, SelfCheck: true})
		if err != nil {
			return fmt.Errorf("%s self-checked run: %w", scheme, err)
		}
		if err := diffRuns(scheme+" self-checked", chkRun, onRun); err != nil {
			return err
		}
	}
	return nil
}

// silenced trains a prefetcher but discards every prediction it makes.
type silenced struct{ hwpf.Prefetcher }

func (s silenced) Train(pc, addr uint64) (uint64, bool) {
	s.Prefetcher.Train(pc, addr)
	return 0, false
}
