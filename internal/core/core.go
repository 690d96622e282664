// Package core provides the end-to-end pipeline that ties the system
// together, mirroring how the paper's research compiler is driven:
//
//  1. ProfilePass — instrument a workload's program (package instrument),
//     execute it on the train input (package machine), and extract the
//     combined edge + stride profile (packages profile and stride).
//  2. prefetch.Apply — feed the profile back into the workload's clean
//     program and insert prefetching code.
//  3. Execute / MeasureSpeedup — run clean and prefetched binaries on the
//     reference input and compare cycle counts.
//
// The examples and the experiment harness are thin layers over this
// package.
package core

import (
	"fmt"

	"stridepf/internal/cache"
	"stridepf/internal/hwpf"
	"stridepf/internal/instrument"
	"stridepf/internal/ir"
	"stridepf/internal/machine"
	"stridepf/internal/prefetch"
	"stridepf/internal/profile"
)

// Input selects a workload input data set. Scale controls the data-set
// size in workload-specific units; Seed drives any randomised layout or
// access decisions, so a given (Scale, Seed) pair is fully reproducible.
type Input struct {
	// Name labels the input ("train", "ref").
	Name string
	// Scale is the workload-specific size parameter.
	Scale int
	// Seed drives randomised layout and access patterns.
	Seed uint64
}

// Workload couples a deterministic IR program with input installers. The
// program must not depend on the input (profiles are keyed by instruction
// ID and must transfer between inputs); all input variation goes through
// memory contents written by Setup.
type Workload interface {
	// Name returns the benchmark-style name (e.g. "181.mcf").
	Name() string
	// Description is a one-line summary (Figure 15's description column).
	Description() string
	// Program returns the workload's IR. Implementations must return the
	// same structure on every call (caching is typical).
	Program() *ir.Program
	// Setup writes the input data set into the machine's memory and plants
	// the global pointers the program reads.
	Setup(m *machine.Machine, in Input)
	// Train and Ref return the two standard inputs.
	Train() Input
	Ref() Input
}

// RunStats captures one execution.
type RunStats struct {
	// Stats is the machine-level summary (cycles, instruction counts...).
	Stats machine.Stats
	// DemandMissCycles, PrefetchUseful, PrefetchLate and PrefetchDrops are
	// copied from the cache hierarchy.
	DemandMissCycles uint64
	PrefetchUseful   uint64
	PrefetchLate     uint64
	PrefetchDrops    uint64
	// LoadCounts gives dynamic reference counts per static load.
	LoadCounts map[machine.LoadKey]uint64
	// Ret is the program's return value (workloads return a checksum so
	// transformed binaries can be checked for semantic equivalence).
	Ret int64
	// HWPFScheme and HWPF record the hardware prefetcher attached to the
	// run, when it implemented hwpf.Prefetcher (empty and zero otherwise).
	HWPFScheme string
	HWPF       hwpf.Counters
	// Lanes holds one run per machine.Config.Lanes entry, in order: the
	// same execution seen through that lane's memory system, equal to a
	// standalone run of its configuration. A lane run's own Lanes is nil.
	Lanes []RunStats
}

// Execute runs prog against the given workload input and returns its stats.
// The workload's Setup installs the input; prog may be the clean program,
// an instrumented clone or a prefetched clone (their instruction IDs all
// agree).
func Execute(prog *ir.Program, w Workload, in Input, mcfg machine.Config) (RunStats, error) {
	_, rs, err := run(prog, w, in, mcfg)
	if err != nil {
		return RunStats{}, fmt.Errorf("core: %s/%s: %w", w.Name(), in.Name, err)
	}
	return rs, nil
}

// run builds a machine for prog under mcfg, installs w's input in and
// runs the program, and returns the machine with its statistics. Execute
// and ProfilePass both run through here; each keeps its own frame on the
// stack, which is what attributes a run's samples to its pipeline stage.
func run(prog *ir.Program, w Workload, in Input, mcfg machine.Config) (*machine.Machine, RunStats, error) {
	m, err := machine.New(prog, mcfg)
	if err != nil {
		return nil, RunStats{}, err
	}
	w.Setup(m, in)
	ret, err := m.Run()
	if err != nil {
		return nil, RunStats{}, err
	}
	// Close the effectiveness accounting (resident-unused and
	// still-in-flight prefetches) so every attached collector reconciles;
	// hierarchies without one are skipped.
	m.FinishObs()
	return m, snapshot(m, ret), nil
}

func snapshot(m *machine.Machine, ret int64) RunStats {
	rs := runStats(m.Stats(), m.Hier, m.HWPrefetch(), m.LoadCounts(), ret)
	for _, l := range m.Lanes() {
		rs.Lanes = append(rs.Lanes, runStats(l.Stats, l.Hier, l.HWPrefetch, rs.LoadCounts, ret))
	}
	return rs
}

// runStats assembles one memory system's view of an execution; lanes share
// the primary's per-load counts.
func runStats(st machine.Stats, h *cache.Hierarchy, pf machine.HWPrefetcher, counts map[machine.LoadKey]uint64, ret int64) RunStats {
	rs := RunStats{
		Stats:            st,
		DemandMissCycles: h.DemandMissCycles,
		PrefetchUseful:   h.PrefetchUseful,
		PrefetchLate:     h.PrefetchLate,
		PrefetchDrops:    h.PrefetchDrops,
		LoadCounts:       counts,
		Ret:              ret,
	}
	if p, ok := pf.(hwpf.Prefetcher); ok {
		rs.HWPFScheme = p.Name()
		rs.HWPF = p.Counters()
	}
	return rs
}

// ProfileRun is the outcome of an instrumented (profiling) execution.
type ProfileRun struct {
	// Profiles is the combined edge + stride profile.
	Profiles *profile.Combined
	// Instr is the instrumentation result (profiled-load list...).
	Instr *instrument.Result
	// Stats is the instrumented run's execution summary.
	Stats RunStats
	// ProgramLoadRefs counts dynamic references of the program's own loads
	// (instrumentation counter loads excluded) — the denominator of the
	// paper's Figures 17, 21 and 22.
	ProgramLoadRefs uint64
	// InLoopLoadRefs counts references of loads inside reducible loops.
	InLoopLoadRefs uint64
	// ProcessedRefs counts references processed by strideProf after
	// sampling (Figure 21's numerator).
	ProcessedRefs int64
	// LFUCalls counts references reaching the LFU routine (Figure 22).
	LFUCalls int64
	// HookInvocations counts strideProf entries before sampling.
	HookInvocations int64
	// Lanes holds one run per twin passed to ProfilePass, in order, each
	// equal to that twin's own ProfilePass. A lane run's own Lanes is nil.
	Lanes []*ProfileRun
}

// ProfilePass instruments the workload per opts, runs it on input in, and
// extracts profiles and profiling-cost statistics.
//
// Each twin is profiled too, and its run comes back in ProfileRun.Lanes.
// A twin whose instrumented program has the same ir.Fingerprint as opts'
// (for example the sampled variant of an exact method: sampling happens
// inside the stride runtime) becomes a machine.Lane of the one execution,
// with its own stride runtime bound as the lane's hook on a memory system
// configured like the primary's. The other twins, and every twin when
// mcfg brings lanes of its own, run on their own. mcfg.Obs observes opts'
// run only, and the instrumentation's hooks replace mcfg.Hooks.
func ProfilePass(w Workload, in Input, opts instrument.Options, mcfg machine.Config, twins ...instrument.Options) (*ProfileRun, error) {
	prog := w.Program()
	res, err := instrument.Instrument(prog, opts)
	if err != nil {
		return nil, err
	}
	runs := make([]*ProfileRun, len(twins))
	riders := make([]*instrument.Result, len(twins)) // the twins riding as lanes
	var lanes []machine.Lane
	if len(twins) > 0 {
		fp := ir.Fingerprint(res.Prog)
		lanesOK := len(mcfg.Lanes) == 0
		for i, t := range twins {
			tres, err := instrument.Instrument(prog, t)
			if err != nil {
				return nil, err
			}
			if lanesOK && ir.Fingerprint(tres.Prog) == fp {
				riders[i] = tres
				lanes = append(lanes, machine.Lane{Hierarchy: mcfg.Hierarchy,
					NewHWPrefetch: mcfg.NewHWPrefetch, Hooks: tres.Hooks()})
				continue
			}
			if runs[i], err = ProfilePass(w, in, t, mcfg); err != nil {
				return nil, err
			}
		}
	}
	if lanes != nil {
		mcfg.Lanes = lanes
	}
	mcfg.Hooks = res.Hooks()
	m, st, err := run(res.Prog, w, in, mcfg)
	if err != nil {
		return nil, fmt.Errorf("core: profiling %s/%s with %v: %w", w.Name(), in.Name, opts.Method, err)
	}
	var laneStats []RunStats
	if lanes != nil {
		laneStats, st.Lanes = st.Lanes, nil
	}
	total, inLoop := programLoadRefs(prog, st.LoadCounts)
	pr := profileRun(res, m, st, total, inLoop)
	for i, tres := range riders {
		if tres != nil {
			runs[i] = profileRun(tres, m, laneStats[0], total, inLoop)
			laneStats = laneStats[1:]
		}
	}
	if len(twins) > 0 {
		pr.Lanes = runs
	}
	return pr, nil
}

// profileRun extracts one instrumentation's profiles and profiling-cost
// statistics from the machine that ran it, as the primary or as a lane
// with run statistics st.
func profileRun(res *instrument.Result, m *machine.Machine, st RunStats, total, inLoop uint64) *ProfileRun {
	pr := &ProfileRun{
		Instr: res,
		Stats: st,
		Profiles: &profile.Combined{
			Edge:   res.ExtractEdgeProfile(m),
			Stride: profile.NewStrideProfile(res.StrideSummaries()),
		},
		ProgramLoadRefs: total,
		InLoopLoadRefs:  inLoop,
	}
	if res.Runtime != nil {
		pr.ProcessedRefs = res.Runtime.ProcessedRefs()
		pr.LFUCalls = res.Runtime.LFUCalls()
		pr.HookInvocations = res.Runtime.Invocations
	}
	return pr
}

// programLoadRefs sums dynamic references over the loads present in the
// original (uninstrumented) program, total and in-loop.
func programLoadRefs(orig *ir.Program, counts map[machine.LoadKey]uint64) (total, inLoop uint64) {
	inLoopKeys := OriginalLoadKeys(orig)
	for key, inl := range inLoopKeys {
		c := counts[key]
		total += c
		if inl {
			inLoop += c
		}
	}
	return total, inLoop
}

// SpeedupResult compares a clean and a prefetched execution.
type SpeedupResult struct {
	// Base and Prefetched are the two runs' stats.
	Base, Prefetched RunStats
	// Speedup is base cycles over prefetched cycles (1.2 = 20% faster).
	Speedup float64
	// Feedback is the feedback pass's outcome.
	Feedback *prefetch.Result
}

// MeasureSpeedup builds the prefetched binary from prof and runs both the
// clean and the prefetched program on input in. It verifies that both
// executions return the same value (the transformation must preserve
// semantics) and returns the cycle-count comparison.
func MeasureSpeedup(w Workload, in Input, prof *profile.Combined, popts prefetch.Options, mcfg machine.Config) (*SpeedupResult, error) {
	fb, err := prefetch.Apply(w.Program(), prof, popts)
	if err != nil {
		return nil, err
	}
	base, err := Execute(w.Program(), w, in, mcfg)
	if err != nil {
		return nil, err
	}
	pf, err := Execute(fb.Prog, w, in, mcfg)
	if err != nil {
		return nil, err
	}
	if base.Ret != pf.Ret {
		return nil, fmt.Errorf("core: %s: prefetched binary returned %d, clean returned %d",
			w.Name(), pf.Ret, base.Ret)
	}
	return &SpeedupResult{
		Base:       base,
		Prefetched: pf,
		Speedup:    float64(base.Stats.Cycles) / float64(pf.Stats.Cycles),
		Feedback:   fb,
	}, nil
}
