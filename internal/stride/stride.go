// Package stride implements the stride-profiling runtime of the paper's
// Section 3.1: the strideProf routine in its plain (Figure 6), enhanced
// (Figure 7, is_same_value low-bit masking) and sampled (Figure 9, fine and
// chunk sampling) forms, backed by the LFU value profiler of package lfu.
//
// The runtime is invoked from instrumented IR through a machine hook; each
// call charges a configurable cycle cost to the simulated machine, which is
// how profiling overhead (Figure 20) is measured. Aggregate counters track
// how many load references reach strideProf after sampling (Figure 21) and
// how many reach the LFU routine (Figure 22).
package stride

import (
	"fmt"
	"sort"

	"stridepf/internal/lfu"
	"stridepf/internal/machine"
	"stridepf/internal/obs"
)

// HookID is the machine hook identifier under which the runtime registers
// itself. Instrumented code calls hook(HookID, dataIndex, address).
const HookID int64 = 1001

// CostModel gives the simulated cycle cost of each path through the
// profiling runtime. The defaults approximate the instruction counts of the
// C routines in Figures 6/7/9 on an in-order machine.
type CostModel struct {
	// Call is the fixed cost of reaching the routine (call, spills, args).
	Call uint64
	// ChunkCheck is the cost of the chunk-sampling counter checks.
	ChunkCheck uint64
	// FineCheck is the cost of the fine-sampling counter check.
	FineCheck uint64
	// ZeroStride is the cost of the zero-stride fast path.
	ZeroStride uint64
	// DiffPath is the cost of computing the stride difference and updating
	// prof_data fields.
	DiffPath uint64
	// LFU is the cost of one LFU buffer update.
	LFU uint64
	// PathBucket is the extra cost per processed sample of attributing the
	// reference to its per-path bucket (paths mode only: one table lookup
	// plus the bucket counter updates).
	PathBucket uint64
}

// DefaultCosts returns the default cost model.
func DefaultCosts() CostModel {
	return CostModel{Call: 10, ChunkCheck: 3, FineCheck: 2, ZeroStride: 5, DiffPath: 8, LFU: 40, PathBucket: 6}
}

// Config parameterises the runtime.
type Config struct {
	// Enhanced selects the Figure 7 routine: addresses within the same
	// 16-byte bucket count as a zero stride, and the LFU matches strides
	// differing only in their low 4 bits.
	Enhanced bool
	// SameMask is the low-bit mask for Enhanced mode; zero selects 15.
	SameMask int64
	// FineInterval is the fine-sampling period F (profile one of every F
	// references per load). Values <= 1 disable fine sampling.
	FineInterval int
	// ChunkSkip (N1) and ChunkProfile (N2) configure chunk sampling: after
	// N1 references are skipped, the next N2 are profiled, globally across
	// all loads (the routine's static counters in Figure 9). ChunkSkip <= 0
	// disables chunk sampling.
	ChunkSkip, ChunkProfile int64
	// LFU configures the per-load value profiler. SameMask is applied
	// automatically in Enhanced mode.
	LFU lfu.Config
	// Costs is the cycle cost model; the zero value selects DefaultCosts.
	Costs CostModel
	// RefDistance enables reference-distance profiling (Section 6's first
	// future-work direction): each record tracks the mean number of memory
	// references between its successive executions, charged at one extra
	// DiffPath cost per processed call.
	RefDistance bool
	// Paths enables the path dimension (the "paths" instrumentation
	// scheme): hooks carry a third argument, the Ball–Larus k-iteration
	// path id of package blpath, and every processed sample is additionally
	// attributed to a per-(load, path-id) bucket. The aggregate per-load
	// counters and LFU are maintained unchanged, so summing a load's
	// buckets reproduces its path-insensitive profile exactly. Samples at
	// loads outside any numbered loop arrive with path id -1 and land in a
	// catch-all bucket, keeping the projection exact there too.
	Paths bool
}

func (c *Config) fill() {
	if c.Enhanced && c.SameMask == 0 {
		c.SameMask = 15
	}
	if c.Costs == (CostModel{}) {
		c.Costs = DefaultCosts()
	}
	if c.Enhanced {
		c.LFU.SameMask = c.SameMask
	}
}

// ProfData is the per-load profiling record (the paper's prof_data).
type ProfData struct {
	// Key identifies the profiled load.
	Key machine.LoadKey

	prevAddr   int64
	prevStride int64
	hasPrev    bool
	hasStride  bool

	// NumZeroStride counts samples whose address repeated (stride zero, or
	// same 16-byte bucket in Enhanced mode).
	NumZeroStride int64
	// NumZeroDiff counts samples whose stride equalled the previous stride.
	NumZeroDiff int64
	// TotalStrides counts samples that produced a stride (zero or not);
	// the classifier's total_freq.
	TotalStrides int64
	// Processed counts calls that got past sampling (Figure 21's metric).
	Processed int64

	skipLeft int // fine-sampling countdown (prof_data->number_to_skip)

	// LFU tracks the non-zero stride values.
	LFU *lfu.Profiler

	// paths holds the per-path-id buckets (Config.Paths mode only),
	// allocated lazily on the first sample attributed to each id.
	paths map[int64]*PathBucket

	// Reference-distance profiling (the paper's first future-work item):
	// the number of other memory references issued between successive
	// references of this load. Large distances mean a prefetched line is
	// likely evicted before use, so the feedback pass can veto prefetching.
	lastGlobalRef int64
	distSamples   int64
	distTotal     int64
}

// PathBucket accumulates the samples of one load attributed to one
// k-iteration path id. Buckets only attribute: they never influence the
// aggregate state machine (prev_address, prev_stride, sampling counters),
// which is what makes the path→load projection exact.
type PathBucket struct {
	// Processed counts post-sampling samples attributed to this path.
	Processed int64
	// TotalStrides, ZeroStrides and ZeroDiffs mirror the aggregate
	// counters for the subset of samples taken on this path.
	TotalStrides int64
	ZeroStrides  int64
	ZeroDiffs    int64
	// LFU tracks this path's non-zero stride values.
	LFU *lfu.Profiler
}

// Runtime is the profiling runtime shared by all profiled loads of one
// instrumented execution.
type Runtime struct {
	cfg   Config
	data  []*ProfData
	byKey map[machine.LoadKey]int

	// Chunk-sampling globals (the static counters of Figure 9).
	numberSkipped  int64
	numberProfiled int64

	// Invocations counts hook calls (before any sampling).
	Invocations int64

	// MalformedCalls counts hook invocations with the wrong argument count;
	// OutOfRangeCalls counts invocations whose data index named no record.
	// Both mark instrumentation bugs: the profile is silently incomplete.
	// They used to be swallowed without a trace; now they are counted
	// always, and under machine.Config.SelfCheck the first one also faults
	// the run (see Hooks).
	MalformedCalls  int64
	OutOfRangeCalls int64
}

// NewRuntime returns an empty runtime.
func NewRuntime(cfg Config) *Runtime {
	cfg.fill()
	return &Runtime{cfg: cfg, byKey: make(map[machine.LoadKey]int)}
}

// Config returns the runtime's (filled-in) configuration.
func (rt *Runtime) Config() Config { return rt.cfg }

// AddLoad allocates a prof_data record for the given load and returns its
// dense index, which instrumentation bakes into the hook call as the first
// argument. Adding the same key twice returns the existing index.
func (rt *Runtime) AddLoad(key machine.LoadKey) int {
	if i, ok := rt.byKey[key]; ok {
		return i
	}
	pd := &ProfData{Key: key, LFU: lfu.New(rt.cfg.LFU)}
	rt.data = append(rt.data, pd)
	rt.byKey[key] = len(rt.data) - 1
	return len(rt.data) - 1
}

// Data returns the record for key, or nil.
func (rt *Runtime) Data(key machine.LoadKey) *ProfData {
	if i, ok := rt.byKey[key]; ok {
		return rt.data[i]
	}
	return nil
}

// Records returns all records in allocation order.
func (rt *Runtime) Records() []*ProfData { return rt.data }

// Hooks returns the runtime's binding for machine.Config.Hooks or
// machine.Lane.Hooks, where it charges the lane's clock: its strideProf
// routine under HookID. Instrumented code invokes it as
// hook(HookID, dataIndex, address) — or, in paths mode, as
// hook(HookID, dataIndex, address, pathID).
func (rt *Runtime) Hooks() map[int64]machine.HookFunc {
	want := 2
	if rt.cfg.Paths {
		want = 3
	}
	return map[int64]machine.HookFunc{HookID: func(mm *machine.Machine, args []int64) {
		if len(args) != want {
			rt.MalformedCalls++
			mm.Obs().Emit(obs.TraceEvent{
				Cycle: mm.Now(), Kind: "hook-malformed",
				Detail: fmt.Sprintf("args=%d", len(args)),
			})
			if mm.SelfChecked() {
				mm.Fault(fmt.Errorf(
					"stride: hook %d called with %d args, want %d", HookID, len(args), want))
			}
			return
		}
		idx := args[0]
		if idx < 0 || int(idx) >= len(rt.data) {
			rt.OutOfRangeCalls++
			mm.Obs().Emit(obs.TraceEvent{
				Cycle: mm.Now(), Kind: "hook-out-of-range",
				Detail: fmt.Sprintf("idx=%d records=%d", idx, len(rt.data)),
			})
			if mm.SelfChecked() {
				mm.Fault(fmt.Errorf(
					"stride: hook %d called with data index %d, have %d records",
					HookID, idx, len(rt.data)))
			}
			return
		}
		pd := rt.data[idx]
		if rt.cfg.RefDistance {
			st := mm.Stats()
			rt.RecordRefDistance(pd, int64(st.LoadRefs+st.StoreRefs))
		}
		var cost uint64
		if rt.cfg.Paths {
			cost = rt.ProfilePath(pd, args[1], args[2])
		} else {
			cost = rt.Profile(pd, args[1])
		}
		mm.AddCycles(cost)
	}}
}

// RecordRefDistance notes that the load is being referenced when the
// machine has issued globalRefs memory references in total, accumulating
// the distance since the load's previous reference.
func (rt *Runtime) RecordRefDistance(pd *ProfData, globalRefs int64) {
	if pd.lastGlobalRef > 0 {
		pd.distTotal += globalRefs - pd.lastGlobalRef
		pd.distSamples++
	}
	pd.lastGlobalRef = globalRefs
}

// AvgRefDistance returns the load's mean inter-reference distance in
// memory references, or 0 when unmeasured.
func (pd *ProfData) AvgRefDistance() float64 {
	if pd.distSamples == 0 {
		return 0
	}
	return float64(pd.distTotal) / float64(pd.distSamples)
}

// sameValue implements Figure 7's is_same_value: true when the two
// addresses agree outside the low bits.
func (rt *Runtime) sameValue(a1, a2 int64) bool {
	return a1&^rt.cfg.SameMask == a2&^rt.cfg.SameMask
}

// Profile runs the strideProf routine (Figures 6/7/9) for one reference of
// the profiled load and returns the simulated cycle cost of the call.
func (rt *Runtime) Profile(pd *ProfData, address int64) uint64 {
	return rt.profile(pd, address, nil)
}

// ProfilePath runs the strideProf routine for one reference carrying a
// k-iteration path id, additionally attributing the sample to the load's
// bucket for that id. The aggregate state machine sees exactly what
// Profile would, so a paths-mode run and a plain run over the same
// reference sequence produce identical aggregate profiles.
func (rt *Runtime) ProfilePath(pd *ProfData, address, pathID int64) uint64 {
	if pd.paths == nil {
		pd.paths = make(map[int64]*PathBucket)
	}
	pb := pd.paths[pathID]
	if pb == nil {
		pb = &PathBucket{LFU: lfu.New(rt.cfg.LFU)}
		pd.paths[pathID] = pb
	}
	return rt.profile(pd, address, pb)
}

// profile is the shared strideProf body; pb, when non-nil, receives the
// per-path attribution of every counter the aggregate records.
func (rt *Runtime) profile(pd *ProfData, address int64, pb *PathBucket) uint64 {
	rt.Invocations++
	cost := rt.cfg.Costs.Call

	// Chunk sampling (Figure 9): static counters shared by all loads.
	if rt.cfg.ChunkSkip > 0 {
		cost += rt.cfg.Costs.ChunkCheck
		if rt.numberSkipped < rt.cfg.ChunkSkip {
			rt.numberSkipped++
			return cost
		}
		if rt.numberProfiled == rt.cfg.ChunkProfile {
			// The chunk is full, so this reference opens the next skip
			// phase and must count as its first skip. Resetting both
			// counters to zero here would swallow the boundary reference —
			// neither profiled nor skipped — stretching the sampling
			// period to ChunkSkip+ChunkProfile+1 references.
			rt.numberProfiled = 0
			rt.numberSkipped = 1
			return cost
		}
		rt.numberProfiled++
	}

	// Fine sampling: per-load countdown.
	if rt.cfg.FineInterval > 1 {
		cost += rt.cfg.Costs.FineCheck
		if pd.skipLeft > 0 {
			pd.skipLeft--
			return cost
		}
		pd.skipLeft = rt.cfg.FineInterval - 1
	}

	pd.Processed++
	if pb != nil {
		pb.Processed++
		cost += rt.cfg.Costs.PathBucket
	}
	if rt.cfg.RefDistance {
		cost += rt.cfg.Costs.DiffPath // distance bookkeeping
	}

	if !pd.hasPrev {
		pd.prevAddr = address
		pd.hasPrev = true
		return cost
	}

	// Zero-stride fast path, bypassing the LFU routine.
	zero := address == pd.prevAddr
	if rt.cfg.Enhanced {
		zero = rt.sameValue(address, pd.prevAddr)
	}
	if zero {
		pd.NumZeroStride++
		pd.TotalStrides++
		if pb != nil {
			pb.ZeroStrides++
			pb.TotalStrides++
		}
		cost += rt.cfg.Costs.ZeroStride
		// Figure 6 returns without updating prev_address (the address is
		// unchanged by definition; in Enhanced mode it may differ within the
		// bucket, and Figure 7 does update it).
		if rt.cfg.Enhanced {
			pd.prevAddr = address
		}
		return cost
	}

	stride := address - pd.prevAddr
	cost += rt.cfg.Costs.DiffPath
	if pd.hasStride {
		if stride == pd.prevStride {
			pd.NumZeroDiff++
			if pb != nil {
				pb.ZeroDiffs++
			}
		} else {
			pd.prevStride = stride
		}
	} else {
		pd.prevStride = stride
		pd.hasStride = true
	}
	pd.prevAddr = address
	pd.TotalStrides++
	pd.LFU.Add(stride)
	if pb != nil {
		pb.TotalStrides++
		pb.LFU.Add(stride)
	}
	cost += rt.cfg.Costs.LFU
	return cost
}

// LFUCalls sums LFU invocations across all loads (Figure 22's metric).
func (rt *Runtime) LFUCalls() int64 {
	var n int64
	for _, pd := range rt.data {
		n += pd.LFU.LFUCalls
	}
	return n
}

// ProcessedRefs sums post-sampling processed references across all loads
// (Figure 21's metric).
func (rt *Runtime) ProcessedRefs() int64 {
	var n int64
	for _, pd := range rt.data {
		n += pd.Processed
	}
	return n
}

// Summary is the per-load stride profile handed to the feedback pass.
type Summary struct {
	// Key identifies the load.
	Key machine.LoadKey
	// TopStrides lists up to four non-zero strides by decreasing frequency.
	// With fine sampling the values are F times the true stride; the
	// feedback pass divides by FineInterval.
	TopStrides []lfu.Entry
	// TotalStrides is the number of stride samples (zero and non-zero).
	TotalStrides int64
	// ZeroStrides is the number of zero-stride samples.
	ZeroStrides int64
	// ZeroDiffs is the number of samples whose stride repeated.
	ZeroDiffs int64
	// FineInterval records the sampling period the profile was taken with.
	FineInterval int
	// AvgRefDistance is the mean number of other memory references between
	// successive references of this load (0 when not profiled; see
	// Config.RefDistance).
	AvgRefDistance float64 `json:",omitempty"`
	// Paths holds the per-path-id attribution of this load's samples
	// (Config.Paths mode only), sorted by id. The id -1 is the catch-all
	// bucket for samples taken outside any numbered loop. Summing the
	// bucket counters reproduces the aggregate fields above exactly.
	Paths []PathSummary `json:",omitempty"`
}

// PathSummary is the profile of one (load, path-id) bucket.
type PathSummary struct {
	// ID is the Ball–Larus k-iteration path id (-1 for the catch-all).
	ID int64
	// TopStrides lists up to four non-zero strides by decreasing frequency,
	// scaled like Summary.TopStrides.
	TopStrides []lfu.Entry
	// TotalStrides, ZeroStrides, ZeroDiffs and Processed mirror the
	// aggregate counters for this path's subset of samples.
	TotalStrides int64
	ZeroStrides  int64
	ZeroDiffs    int64
	Processed    int64
}

// ProjectPaths sums a path-dimensioned summary's bucket counters — the
// path→load projection. In paths mode the result equals the aggregate
// counters of the same summary (and of an edge-check run over the same
// execution); the differential tests assert exactly that.
func ProjectPaths(s Summary) (processed, total, zeros, zeroDiffs int64) {
	for _, p := range s.Paths {
		processed += p.Processed
		total += p.TotalStrides
		zeros += p.ZeroStrides
		zeroDiffs += p.ZeroDiffs
	}
	return processed, total, zeros, zeroDiffs
}

// Summarize extracts the feedback-facing profile of every profiled load,
// sorted by key for determinism.
func (rt *Runtime) Summarize() []Summary {
	out := make([]Summary, 0, len(rt.data))
	for _, pd := range rt.data {
		out = append(out, Summary{
			Key:            pd.Key,
			TopStrides:     pd.LFU.Top(4),
			TotalStrides:   pd.TotalStrides,
			ZeroStrides:    pd.NumZeroStride,
			ZeroDiffs:      pd.NumZeroDiff,
			FineInterval:   maxInt(1, rt.cfg.FineInterval),
			AvgRefDistance: pd.AvgRefDistance(),
			Paths:          pd.summarizePaths(),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key.Func != out[j].Key.Func {
			return out[i].Key.Func < out[j].Key.Func
		}
		return out[i].Key.ID < out[j].Key.ID
	})
	return out
}

// summarizePaths extracts the per-path buckets sorted by id (nil outside
// paths mode).
func (pd *ProfData) summarizePaths() []PathSummary {
	if pd.paths == nil {
		return nil
	}
	ids := make([]int64, 0, len(pd.paths))
	for id := range pd.paths {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]PathSummary, 0, len(ids))
	for _, id := range ids {
		pb := pd.paths[id]
		out = append(out, PathSummary{
			ID:           id,
			TopStrides:   pb.LFU.Top(4),
			TotalStrides: pb.TotalStrides,
			ZeroStrides:  pb.ZeroStrides,
			ZeroDiffs:    pb.ZeroDiffs,
			Processed:    pb.Processed,
		})
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
