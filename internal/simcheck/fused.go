package simcheck

import (
	"errors"
	"fmt"
	"reflect"

	"stridepf/internal/hwpf"
	"stridepf/internal/instrument"
	"stridepf/internal/ir"
	"stridepf/internal/irgen"
	"stridepf/internal/machine"
	"stridepf/internal/obs"
	"stridepf/internal/stride"
)

// exactTranslation selects the machine's exact translation (one source
// instruction per dispatch) through a throwaway pair profile.
func exactTranslation() machine.Option { return machine.WithPairProfile(machine.NewPairProfile()) }

// CheckFusedDifferential generates a program from (seed, cfg) and executes
// it through the machine's fused translation and through its exact
// translation (selected with WithPairProfile). The fused translation —
// superinstruction fusion, constant folding, batched cache refs — must be
// observably identical: same result, same statistics (including exact
// instruction and cycle counts), same final memory image, same per-load
// reference counts.
//
// The comparison is repeated three more ways:
//
//   - with observers attached on both sides: a seed-drawn enabled hardware
//     prefetcher, an obs collector and one lane with its own hierarchy,
//     scheme and collector. The prefetcher counters, the closed collectors
//     (deep-equal, each reconciled) and the lane's account must match too;
//   - under a seed-drawn MaxSteps below the program's instruction count:
//     both sides must stop with ErrMaxSteps on the same instruction, with
//     the same statistics and memory image;
//   - on the NaiveAll-instrumented program, where the load+hook
//     superinstruction and the profiling runtime's counter traffic
//     dominate; the collected stride profiles must match record for record.
//
// Generated programs never place a store right after a load, so the clean,
// observed and budget comparisons also run on a seed-drawn load+store walk
// (loadStoreWalk), the shape the fused translation batches.
func CheckFusedDifferential(seed uint64, cfg irgen.Config) error {
	prog := irgen.Generate(seed, cfg)
	if err := fusedMatchesExact("generated", prog, seed); err != nil {
		return err
	}
	walk := loadStoreWalk(seed, int64(100+seed%400), kernelStrides[seed%uint64(len(kernelStrides))]*8, false)
	if err := fusedMatchesExact("load+store walk", walk, seed); err != nil {
		return err
	}

	// Instrumented: each side gets its own runtime so the profiles are
	// independently collected, then compared.
	runInstr := func(opts ...machine.Option) (runResult, []stride.Summary, error) {
		res, err := instrument.Instrument(prog, instrument.Options{Method: instrument.NaiveAll})
		if err != nil {
			return runResult{}, nil, fmt.Errorf("instrument: %w", err)
		}
		m, err := machine.New(res.Prog, opts...)
		if err != nil {
			return runResult{}, nil, err
		}
		if res.Runtime != nil {
			res.Runtime.Register(m)
		}
		ret, err := m.Run()
		if err != nil {
			return runResult{}, nil, err
		}
		return runResult{
			Ret:         ret,
			Stats:       m.Stats(),
			Fingerprint: m.Mem.Fingerprint(),
			LoadCounts:  m.LoadCounts(),
		}, res.StrideSummaries(), nil
	}
	ifused, pfused, err := runInstr()
	if err != nil {
		return fmt.Errorf("fused instrumented run: %w", err)
	}
	iref, pref, err := runInstr(exactTranslation())
	if err != nil {
		return fmt.Errorf("exact instrumented run: %w", err)
	}
	if err := diffRuns("instrumented", ifused, iref); err != nil {
		return err
	}
	if !reflect.DeepEqual(pfused, pref) {
		return fmt.Errorf("fused path changed stride profile: fused %d summaries %+v, exact %d summaries %+v",
			len(pfused), pfused, len(pref), pref)
	}
	return nil
}

// fusedMatchesExact runs the clean, observed and budget comparisons of
// CheckFusedDifferential on prog, labelling failures with name.
func fusedMatchesExact(name string, prog *ir.Program, seed uint64) error {
	fused, err := runProg(prog)
	if err != nil {
		return fmt.Errorf("%s: fused run: %w", name, err)
	}
	ref, err := runProg(prog, exactTranslation())
	if err != nil {
		return fmt.Errorf("%s: exact run: %w", name, err)
	}
	if err := diffRuns(name+" clean", fused, ref); err != nil {
		return err
	}

	schemes := hwpf.Schemes()
	scheme, laneScheme := schemes[seed%uint64(len(schemes))], schemes[(seed+1)%uint64(len(schemes))]
	ofused, err := runObserved(prog, scheme, laneScheme)
	if err != nil {
		return fmt.Errorf("%s: fused observed run: %w", name, err)
	}
	oref, err := runObserved(prog, scheme, laneScheme, exactTranslation())
	if err != nil {
		return fmt.Errorf("%s: exact observed run: %w", name, err)
	}
	if err := diffRuns(name+" observed", ofused.runResult, oref.runResult); err != nil {
		return err
	}
	for i := range ofused.accounts {
		if !reflect.DeepEqual(ofused.accounts[i], oref.accounts[i]) {
			return fmt.Errorf("%s observed (%s, lane %s): fused path changed memory system %d:\nfused %+v\nexact %+v",
				name, scheme, laneScheme, i, ofused.accounts[i], oref.accounts[i])
		}
	}

	if n := fused.Stats.Instrs; n > 1 {
		budget := 1 + (seed*0x9E3779B97F4A7C15>>1)%(n-1)
		bfused, ferr := runProg(prog, machine.WithMaxSteps(budget))
		bref, rerr := runProg(prog, machine.WithMaxSteps(budget), exactTranslation())
		if !errors.Is(ferr, machine.ErrMaxSteps) || !errors.Is(rerr, machine.ErrMaxSteps) {
			return fmt.Errorf("%s: budget %d of %d instructions: fused err=%v, exact err=%v, want ErrMaxSteps",
				name, budget, n, ferr, rerr)
		}
		if err := diffRuns(fmt.Sprintf("%s budget %d", name, budget), bfused, bref); err != nil {
			return err
		}
	}
	return nil
}

// loadStoreWalk builds a loop of trip iterations whose body loads a word
// and stores the running sum into the next one, walking an array with the
// given stride: a load immediately followed by a store that reads neither
// operand from it. With prefetch set, each iteration first prefetches two
// iterations ahead and adds in a third word.
func loadStoreWalk(seed uint64, trip, stride int64, prefetch bool) *ir.Program {
	b := ir.NewBuilder("main")
	head, body, exit := b.Block("head"), b.Block("body"), b.Block("exit")
	p := b.F.NewReg()
	b.MovConst(p, int64(kernelBase))
	i := b.F.NewReg()
	b.MovConst(i, 0)
	acc := b.F.NewReg()
	b.MovConst(acc, int64(seed%1024))
	n := b.Const(trip)
	b.Br(head)
	b.At(head)
	b.CondBr(b.CmpLT(i, n), body, exit)
	b.At(body)
	if prefetch {
		b.Prefetch(p, 2*stride).PFClass = ir.PFSSST
		b.Mov(acc, b.Add(acc, b.Load(p, 16).Dst))
	}
	v := b.Load(p, 0).Dst
	b.Store(p, 8, acc)
	b.Mov(acc, b.Add(acc, v))
	b.AddITo(p, p, stride)
	b.AddITo(i, i, 1)
	b.Br(head)
	b.At(exit)
	b.Ret(acc)
	prog := ir.NewProgram()
	prog.Add(b.Finish())
	return prog
}

// observedRun is a run with a hardware prefetcher, an obs collector and one
// lane attached: the machine's observables plus the primary's and the
// lane's account (see laneRun).
type observedRun struct {
	runResult
	accounts [2]laneRun
}

// runObserved executes prog with scheme on the default hierarchy as the
// primary memory system and laneScheme on the small lane hierarchy as its
// one lane, each with its own collector, closed and reconciled.
func runObserved(prog *ir.Program, scheme, laneScheme string, opts ...machine.Option) (observedRun, error) {
	pcol, lcol := obs.NewCollector(nil), obs.NewCollector(nil)
	lane := machine.Lane{Hierarchy: laneHierarchies()[1], NewHWPrefetch: schemeFactory(laneScheme), Obs: lcol}
	opts = append([]machine.Option{machine.WithHWPrefetchFactory(schemeFactory(scheme)),
		machine.WithObs(pcol), machine.WithLanes(lane)}, opts...)
	m, err := machine.New(prog, opts...)
	if err != nil {
		return observedRun{}, err
	}
	ret, err := m.Run()
	if err != nil {
		return observedRun{}, err
	}
	m.FinishObs()
	for _, col := range []*obs.Collector{pcol, lcol} {
		if err := col.Reconcile(); err != nil {
			return observedRun{}, err
		}
	}
	v := m.Lanes()[0]
	return observedRun{
		runResult: runResult{Ret: ret, Stats: m.Stats(), Fingerprint: m.Mem.Fingerprint(), LoadCounts: m.LoadCounts()},
		accounts: [2]laneRun{accountOf(m.Stats(), m.Hier, m.HWPrefetch(), pcol),
			accountOf(v.Stats, v.Hier, v.HWPrefetch, lcol)},
	}, nil
}

// diffRuns reports the first observable difference between a fused-path run
// and its exact-translation twin.
func diffRuns(label string, fused, ref runResult) error {
	if fused.Ret != ref.Ret {
		return fmt.Errorf("%s: fused path changed result: fused=%d exact=%d", label, fused.Ret, ref.Ret)
	}
	if fused.Stats != ref.Stats {
		return fmt.Errorf("%s: fused path changed statistics: fused=%+v exact=%+v", label, fused.Stats, ref.Stats)
	}
	if fused.Fingerprint != ref.Fingerprint {
		return fmt.Errorf("%s: fused path changed memory: fused=%#x exact=%#x",
			label, fused.Fingerprint, ref.Fingerprint)
	}
	if len(fused.LoadCounts) != len(ref.LoadCounts) {
		return fmt.Errorf("%s: fused path changed load set: fused=%d loads, exact=%d loads",
			label, len(fused.LoadCounts), len(ref.LoadCounts))
	}
	for k, c := range fused.LoadCounts {
		if ref.LoadCounts[k] != c {
			return fmt.Errorf("%s: fused path changed load count of %s#%d: fused=%d exact=%d",
				label, k.Func, k.ID, c, ref.LoadCounts[k])
		}
	}
	return nil
}
