// Package machine executes IR programs against the simulated memory
// hierarchy, producing cycle counts and per-load reference statistics.
//
// The model is a single-issue in-order core in the spirit of the paper's
// 733 MHz Itanium: every instruction has a fixed occupancy, loads stall for
// the hierarchy's access latency, prefetches issue without stalling, and
// predicated-off instructions still occupy an issue slot. The absolute
// numbers are not those of real hardware; the experiments only rely on the
// mechanism — prefetching converts stall cycles into overlap — being
// reproduced faithfully.
package machine

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"stridepf/internal/cache"
	"stridepf/internal/ir"
	"stridepf/internal/mem"
	"stridepf/internal/obs"
)

// HookFunc is a profiling runtime routine callable from IR via OpHook. The
// hook may charge simulated time with Machine.AddCycles, which is how the
// cost of the strideProf routine (Figures 6/7/9) enters the overhead
// measurements.
type HookFunc func(m *Machine, args []int64)

// HWPrefetcher is a hardware prefetcher trained on the demand-load stream
// (e.g. the schemes of package hwpf). pc is a stable per-static-load
// identifier playing the role of the load's program counter. Train returns
// the address to prefetch, if any; the machine issues it under
// obs.ClassHW at the load's completion time.
type HWPrefetcher interface {
	Train(pc, addr uint64) (target uint64, ok bool)
}

// Config parameterises a machine.
type Config struct {
	// Hierarchy is the cache configuration; the zero value selects
	// cache.ItaniumConfig.
	Hierarchy cache.HierarchyConfig
	// HeapBase and HeapSize bound the simulated heap. Zero selects
	// 0x1000_0000 and 1 GB.
	HeapBase, HeapSize uint64
	// MaxSteps aborts runaway programs; zero selects 4e9 instructions.
	MaxSteps uint64
	// MaxDepth bounds the call stack; zero selects 256.
	MaxDepth int
	// Seed seeds the OpRand generator.
	Seed uint64
	// NewHWPrefetch, when non-nil, constructs at New time the hardware
	// prefetcher model (such as a hwpf scheme) trained on every demand load.
	// It is a factory rather than an instance because predictor state is
	// per-run: the experiment session hands one shared Config to many
	// concurrently built machines, and a stateful table shared across them
	// would let runs contaminate each other's predictions.
	NewHWPrefetch func() HWPrefetcher
	// SelfCheck runs naive shadow models of the cache hierarchy and the
	// flat memory in lockstep with the optimized ones, cross-checking every
	// access (latency, hit/miss counters, loaded values, page mapping). On
	// the first mismatch Run returns an error wrapping the model's
	// *cache.DivergenceError or *mem.DivergenceError, which carries the
	// recent event trace. Self-checked runs are slower but semantically
	// identical to unchecked ones.
	SelfCheck bool
	// DisablePrefetch makes OpPrefetch instructions architectural no-ops:
	// they still occupy their issue slot and count in Stats.PrefetchRefs,
	// but never reach the cache hierarchy. Differential checkers use it to
	// assert prefetch neutrality (prefetches may change only cycle counts,
	// never register or memory state).
	DisablePrefetch bool
	// Trace, when non-nil, receives one line per executed instruction:
	// "cycle function/block instruction". A traced run executes the exact
	// translation (one source instruction per dispatch, see bbcache.go);
	// tracing is for debugging small programs — it slows execution
	// dramatically.
	Trace io.Writer
	// Obs, when non-nil, collects prefetch-effectiveness metrics (accuracy,
	// coverage, timeliness per prefetch class; see package obs). Prefetch
	// instructions are attributed to their class via the typed
	// ir.Instr.PFClass field the insertion passes stamp. Observation never
	// changes simulated behavior. Call FinishObs after the final Run to
	// close the lifecycle accounting.
	Obs *obs.Collector
	// Lanes are extra memory systems, each with its own hook bindings,
	// driven beside the primary one above, so one execution yields a run
	// per cache/prefetcher/runtime configuration (see Lane). A lane shares
	// the primary's hierarchy when no prefetch can be in flight, and
	// otherwise keeps its own and replays the recorded references.
	Lanes []Lane
	// Interrupt, when non-nil, aborts a running simulation shortly after the
	// channel becomes readable (typically a context's Done channel): the
	// step loop polls it every few tens of thousands of instructions and
	// returns ErrInterrupted. Long-running servers use it to thread request
	// cancellation into figure simulations.
	Interrupt <-chan struct{}
	// PairProfile, when non-nil, records the dynamic frequency of adjacent
	// opcode pairs executed within basic blocks. Pair profiling is the
	// measurement pass that proposes superinstruction candidates for the
	// fused translation, so the run executes the exact translation
	// (see cmd/interpbench -pairs). Its result is otherwise identical to an
	// unprofiled run's, which makes it the differential checkers' reference.
	PairProfile *PairProfile
}

func (c *Config) fill() {
	if len(c.Hierarchy.Levels) == 0 {
		c.Hierarchy = cache.ItaniumConfig()
	}
	if c.HeapBase == 0 {
		c.HeapBase = 0x1000_0000
	}
	if c.HeapSize == 0 {
		c.HeapSize = 1 << 30
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = 4e9
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = 256
	}
	if c.Seed == 0 {
		c.Seed = 0x9e3779b97f4a7c15
	}
}

// LoadKey identifies a static load instruction across program clones:
// profiles and statistics are keyed by function name and instruction ID.
type LoadKey struct {
	// Func is the function name.
	Func string
	// ID is the instruction's function-unique ID.
	ID int
}

// Stats aggregates an execution.
type Stats struct {
	// Cycles is the total simulated time.
	Cycles uint64
	// Instrs counts executed instructions (including predicated-off ones).
	Instrs uint64
	// LoadRefs counts executed demand loads.
	LoadRefs uint64
	// StoreRefs counts executed stores.
	StoreRefs uint64
	// PrefetchRefs counts executed prefetch instructions.
	PrefetchRefs uint64
	// HookCalls counts runtime-hook invocations.
	HookCalls uint64
}

// decoded is the pre-decoded executable form of one instruction.
type decoded struct {
	op       ir.Opcode
	dst      int32
	s0, s1   int32
	pred     int32
	cost     uint32 // OpCost(op), resolved at decode time
	imm      int64  // for a compare, its truth table (cmpMasks)
	t0, t1   int32  // branch target block indices
	callee   *code
	args     []int32
	hook     HookFunc
	hookID   int64
	loadSlot int32     // index into per-function load counters, or -1
	pfClass  uint8     // obs.Class of an OpPrefetch
	src      *ir.Instr // the source instruction, kept for Config.Trace
}

// obsClassOf maps an OpPrefetch's typed provenance (ir.Instr.PFClass) to
// its obs class.
func obsClassOf(in *ir.Instr) obs.Class {
	switch in.PFClass {
	case ir.PFSSST:
		return obs.ClassSSST
	case ir.PFPMST, ir.PFOutLoopDynamic:
		return obs.ClassPMST
	case ir.PFWSST:
		return obs.ClassWSST
	case ir.PFIndirect:
		return obs.ClassIndirect
	case ir.PFPathSSST:
		// Path-predicated splits are SSSTs specialised per path; the
		// observer accounts them with the SSST class they stand in for.
		return obs.ClassSSST
	}
	return obs.ClassUnknown
}

// loadPC derives the stable per-static-load "program counter" handed to
// hardware prefetchers (FNV-1a of the function name, mixed with the ID).
func loadPC(fn string, id int) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(fn); i++ {
		h ^= uint64(fn[i])
		h *= 0x100000001b3
	}
	return h ^ (uint64(id) * 0x9e3779b97f4a7c15)
}

// code is a pre-decoded function.
type code struct {
	name       string
	fn         *ir.Function
	blocks     [][]decoded
	blockNames []string
	nregs      int
	params     []int32
	loadIDs    []int    // loadSlot -> instruction ID
	loadPCs    []uint64 // loadSlot -> hardware-prefetcher PC (see loadPC)
	loadCount  []uint64 // per-static-load dynamic reference counts

	// xb caches the execution form of each block, translated on first entry
	// (see bbcache.go). It is invalidated whenever resolveHooks rebinds hook
	// sites, so a translation can never outlive the hook table it captured.
	xb []*xblock
	// regReads counts, per register, the static read sites across the whole
	// function; the translator's constant folding may elide a constant's
	// register write only when its sole reader absorbed the immediate.
	regReads []int32
}

// Machine executes one program. A machine is single-use per program but may
// Run multiple times (statistics accumulate unless Reset is called).
type Machine struct {
	cfg   Config
	prog  *ir.Program
	codes map[string]*code

	// Mem is the simulated memory; input builders write into it directly.
	Mem *mem.Memory
	// Heap serves OpAlloc and pre-run input construction.
	Heap *mem.Heap
	// Hier is the cache hierarchy.
	Hier *cache.Hierarchy

	hooks map[int64]HookFunc
	// hooksDirty marks that Register calls since the last Run have not yet
	// been resolved into the decoded instruction stream.
	hooksDirty bool
	// noPf caches Config.DisablePrefetch for the step loop.
	noPf bool
	// intr caches Config.Interrupt for the step loop.
	intr <-chan struct{}
	// pairs caches Config.PairProfile for the step loop.
	pairs *PairProfile
	// pf is the prefetcher Config.NewHWPrefetch built, or nil.
	pf HWPrefetcher
	// lanes is the runtime state of Config.Lanes (nil without lanes): the
	// lanes with a hierarchy of their own first, then those sharing the
	// primary's (see attachLanes).
	lanes []lane
	// fan is the prefix of lanes with a hierarchy of their own, which
	// replay every memory access (nil when there are none).
	fan []lane
	// recs is the block of references and lane charges recorded since the
	// fan-out last replayed (see replay); its capacity is laneBlock.
	recs []laneRec
	// cur is the lane whose hook is running, or nil: the clock accessors
	// charge and read its clock instead of the primary's.
	cur *lane
	// hasPrefetch records whether the program has an OpPrefetch site.
	hasPrefetch bool
	// pollMark is the last Instrs>>16 epoch at which the step loop polled
	// Interrupt.
	pollMark uint64

	cycles uint64
	stats  Stats
	rng    uint64
	// fault holds the first error a runtime hook raised via Fault; Run
	// surfaces it once the program completes.
	fault error

	regPool [][]int64
	argBuf  []int64
}

// ErrMaxSteps is returned when execution exceeds Config.MaxSteps.
var ErrMaxSteps = errors.New("machine: instruction budget exceeded")

// ErrMaxDepth is returned when the call stack exceeds Config.MaxDepth.
var ErrMaxDepth = errors.New("machine: call stack overflow")

// ErrInterrupted is returned when Config.Interrupt fires mid-run (for
// example a cancelled request context). The machine's state is not usable
// for further Runs after an interrupt.
var ErrInterrupted = errors.New("machine: execution interrupted")

// New creates a machine for prog, configured by functional options:
//
//	m, err := machine.New(prog, machine.WithSelfCheck(), machine.WithObs(col))
//
// A full Config can be installed wholesale with WithConfig (typically first,
// with further options layered on top). The program must pass
// ir.VerifyProgram and use only opcodes the machine implements; hooks
// referenced by OpHook instructions must be registered with Register before
// Run.
func New(prog *ir.Program, opts ...Option) (*Machine, error) {
	var cfg Config
	for _, o := range opts {
		o(&cfg)
	}
	cfg.fill()
	var pf HWPrefetcher
	if cfg.NewHWPrefetch != nil {
		pf = cfg.NewHWPrefetch()
	}
	if err := ir.VerifyProgram(prog); err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:        cfg,
		prog:       prog,
		codes:      make(map[string]*code, len(prog.Funcs)),
		Mem:        mem.NewMemory(),
		hooks:      make(map[int64]HookFunc),
		hooksDirty: true,
		Hier:       cache.NewHierarchy(cfg.Hierarchy),
		rng:        cfg.Seed,
		noPf:       cfg.DisablePrefetch,
		intr:       cfg.Interrupt,
		pairs:      cfg.PairProfile,
		pf:         pf,
	}
	if cfg.SelfCheck {
		// Attach the shadows before any memory is touched (the heap and the
		// workload setup write through m.Mem).
		m.Mem.EnableSelfCheck()
		m.Hier.EnableSelfCheck()
	}
	if cfg.Obs != nil {
		m.Hier.EnableObs(cfg.Obs)
	}
	m.Heap = mem.NewHeap(m.Mem, cfg.HeapBase, cfg.HeapSize)
	for name, f := range prog.Funcs {
		m.codes[name] = m.decodeShell(name, f)
	}
	for _, f := range prog.Funcs {
		if err := m.decodeBody(f); err != nil {
			return nil, err
		}
	}
	m.attachLanes()
	return m, nil
}

func (m *Machine) decodeShell(name string, f *ir.Function) *code {
	c := &code{name: name, fn: f, nregs: f.NumRegs}
	for _, p := range f.Params {
		c.params = append(c.params, int32(p))
	}
	return c
}

func (m *Machine) decodeBody(f *ir.Function) error {
	c := m.codes[f.Name]
	// Block targets are resolved through a local position map rather than
	// ir.Function.Renumber: the program may be shared by several machines
	// running concurrently, so decoding must not mutate the IR.
	idx := make(map[*ir.Block]int32, len(f.Blocks))
	for bi, b := range f.Blocks {
		idx[b] = int32(bi)
	}
	c.blocks = make([][]decoded, len(f.Blocks))
	c.blockNames = make([]string, len(f.Blocks))
	for bi, b := range f.Blocks {
		c.blockNames[bi] = b.Name
		dl := make([]decoded, len(b.Instrs))
		for ii, in := range b.Instrs {
			if in.Op > ir.OpHook {
				return fmt.Errorf("machine: unimplemented opcode %s (instruction %d of %s/%s)",
					in.Op, ii, f.Name, b.Name)
			}
			d := decoded{
				op:       in.Op,
				dst:      int32(in.Dst),
				s0:       int32(in.Src[0]),
				s1:       int32(in.Src[1]),
				pred:     int32(in.Pred),
				cost:     uint32(OpCost(in.Op)),
				imm:      in.Imm,
				t0:       -1,
				t1:       -1,
				loadSlot: -1,
			}
			if mask, ok := cmpMasks[in.Op]; ok {
				d.imm = mask
			}
			if len(in.Targets) > 0 {
				d.t0 = idx[in.Targets[0]]
			}
			if len(in.Targets) > 1 {
				d.t1 = idx[in.Targets[1]]
			}
			if in.Op == ir.OpCall {
				d.callee = m.codes[in.Callee]
			}
			if in.Op == ir.OpCall || in.Op == ir.OpHook {
				for _, a := range in.Args {
					d.args = append(d.args, int32(a))
				}
			}
			if in.Op == ir.OpHook {
				d.hookID = in.Imm
			}
			if in.Op == ir.OpLoad {
				d.loadSlot = int32(len(c.loadIDs))
				c.loadIDs = append(c.loadIDs, in.ID)
				c.loadPCs = append(c.loadPCs, loadPC(f.Name, in.ID))
			}
			if in.Op == ir.OpPrefetch {
				d.pfClass = uint8(obsClassOf(in))
				m.hasPrefetch = true
			}
			if m.cfg.Trace != nil {
				d.src = in
			}
			dl[ii] = d
		}
		c.blocks[bi] = dl
	}
	c.loadCount = make([]uint64, len(c.loadIDs))
	return nil
}

// Register installs hook fn under id. Registering id twice replaces the
// hook (tests rely on this to stub runtimes). Registration takes effect at
// the next Run, which resolves every OpHook site against the hook table.
//
// The next-Run boundary is a hard contract, pinned by a regression test: a
// Register call made while a Run is in progress (for example from inside
// another hook) has NO effect on the current run — not even for functions
// the run has not yet entered. The step loop translates functions lazily on
// first entry and copies the hook pointers resolveHooks bound before the run
// started into its block cache, so a mid-run rebinding that took effect for
// not-yet-translated code would make a site's hook depend on when its
// function was first called. Deferring to the next Run keeps translation
// sound: resolveHooks rebinds every site and invalidates every cached block
// translation before the program restarts.
func (m *Machine) Register(id int64, fn HookFunc) {
	m.hooks[id] = fn
	m.hooksDirty = true
}

// resolveHooks binds every OpHook site to its registered HookFunc — with
// lanes attached, to one that runs each lane's binding after the primary's
// (see laneHook) — so the step loop skips the per-call map lookup. A hook
// ID unregistered on the primary or unbound on a lane is reported up front
// — naming the lane, hook, function and instruction — instead of faulting
// mid-simulation. Functions are visited in sorted order so the error is
// deterministic.
func (m *Machine) resolveHooks() error {
	names := make([]string, 0, len(m.codes))
	for name := range m.codes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := m.codes[name]
		for bi := range c.blocks {
			for ii := range c.blocks[bi] {
				d := &c.blocks[bi][ii]
				if d.op != ir.OpHook {
					continue
				}
				fn := m.hooks[d.hookID]
				who := "machine"
				for i := 0; fn != nil && i < len(m.lanes); i++ {
					if m.lanes[i].hooks[d.hookID] == nil {
						fn, who = nil, fmt.Sprintf("machine: lane %d", m.lanes[i].idx)
					}
				}
				if fn == nil {
					return fmt.Errorf("%s: hook %d not registered (instruction %d of %s/%s)",
						who, d.hookID, ii, name, c.blockNames[bi])
				}
				if m.lanes != nil {
					fn = m.laneHook(d.hookID, fn)
				}
				d.hook = fn
			}
		}
	}
	// Rebinding orphans any cached block translations: they hold the hook
	// pointers captured at translation time. Drop them so the step loop
	// retranslates against the new bindings on first entry.
	for _, name := range names {
		m.codes[name].xb = nil
	}
	m.hooksDirty = false
	return nil
}

// AddCycles charges extra simulated time; profiling hooks use it to model
// the cost of the runtime routine they represent. Inside a lane's hook it
// charges the lane's clock.
func (m *Machine) AddCycles(n uint64) {
	if m.cur != nil {
		m.charge(m.cur, n)
		return
	}
	m.cycles += n
}

// Fault records a non-fatal runtime-integrity error raised by a hook (a
// malformed call, an out-of-range argument). Execution continues — faulting
// mid-simulation would change behavior relative to an unchecked run — but
// Run returns the first recorded fault once the program completes. Later
// faults are dropped.
func (m *Machine) Fault(err error) {
	if m.fault == nil {
		m.fault = err
	}
}

// SelfChecked reports whether the machine runs with shadow-model
// self-checking; runtimes use it to decide whether integrity violations
// should surface as errors or only as counters.
func (m *Machine) SelfChecked() bool { return m.cfg.SelfCheck }

// Obs returns the attached effectiveness collector, or nil; inside a lane's
// hook, the lane's. Runtime hooks use it to emit trace events through the
// shared sampled sink.
func (m *Machine) Obs() *obs.Collector {
	if m.cur != nil {
		return m.cur.obs
	}
	return m.cfg.Obs
}

// FinishObs closes effectiveness accounting at the current cycle, each
// lane's at its own clock (see cache.Hierarchy.FinishObs; hierarchies
// without a collector are skipped). Call once, after the final Run.
func (m *Machine) FinishObs() {
	m.Hier.FinishObs(m.cycles)
	for i := range m.fan {
		l := &m.fan[i]
		l.hier.FinishObs(m.cycles + l.skew)
	}
}

// Now returns the current simulated cycle; inside a lane's hook, the
// lane's, which first replays what the lanes of the fan-out have not yet
// seen.
func (m *Machine) Now() uint64 {
	if l := m.cur; l != nil {
		if l.fan >= 0 {
			m.replay()
		}
		return m.cycles + l.skew
	}
	return m.cycles
}

// HWPrefetch returns the hardware prefetcher Config.NewHWPrefetch built at
// New time, or nil.
func (m *Machine) HWPrefetch() HWPrefetcher { return m.pf }

// Stats returns execution statistics accumulated so far; inside a lane's
// hook, Cycles is the lane's clock.
func (m *Machine) Stats() Stats {
	s := m.stats
	s.Cycles = m.Now()
	return s
}

// LoadCounts returns dynamic reference counts per static load.
func (m *Machine) LoadCounts() map[LoadKey]uint64 {
	out := make(map[LoadKey]uint64)
	for name, c := range m.codes {
		for slot, id := range c.loadIDs {
			if c.loadCount[slot] > 0 {
				out[LoadKey{Func: name, ID: id}] = c.loadCount[slot]
			}
		}
	}
	return out
}

// Run executes the program's entry function to completion and returns its
// return value. Hooks referenced by the program must all be registered by
// this point, on the primary with Register and on every lane through
// Lane.Hooks: Run fails immediately — before simulating a single
// instruction — if any OpHook site names a hook ID unbound on either, and
// the error names the lane.
//
// Under Config.SelfCheck a shadow-model divergence aborts the run: the
// models panic with a typed divergence value, which Run converts into the
// returned error (use errors.As with *cache.DivergenceError or
// *mem.DivergenceError to inspect the event trace; the cache's carries the
// diverging access's cycle).
//
// However the run ends, the lanes of the fan-out then replay the
// references recorded since their last replay, so Lanes and FinishObs see
// them at the instruction the run stopped on. Those references all precede
// where the run stopped, so a divergence a lane raises replaying them is
// the error Run returns.
func (m *Machine) Run() (ret int64, err error) {
	entry := m.codes[m.prog.Main]
	if entry == nil {
		return 0, fmt.Errorf("machine: entry function %q missing", m.prog.Main)
	}
	if m.hooksDirty {
		if err := m.resolveHooks(); err != nil {
			return 0, err
		}
	}
	m.pollMark = m.stats.Instrs >> 16
	err = m.checked(func() (err error) {
		ret, err = m.call(entry, nil, 0)
		return err
	})
	if rerr := m.checked(func() error { m.replay(); return nil }); rerr != nil {
		ret, err = 0, rerr
	}
	if err == nil && m.fault != nil {
		err = m.fault
	}
	return ret, err
}

// checked runs f; under Config.SelfCheck it converts a shadow model's
// divergence panic into the returned error.
func (m *Machine) checked(f func() error) (err error) {
	if m.cfg.SelfCheck {
		defer func() {
			m.cur = nil
			switch d := recover().(type) {
			case nil:
			case *cache.DivergenceError:
				err = fmt.Errorf("machine: self-check: %w", d)
			case *mem.DivergenceError:
				err = fmt.Errorf("machine: self-check: %w", d)
			default:
				panic(d)
			}
		}()
	}
	return f()
}

func (m *Machine) getRegs(n int) []int64 {
	if len(m.regPool) > 0 {
		r := m.regPool[len(m.regPool)-1]
		m.regPool = m.regPool[:len(m.regPool)-1]
		if cap(r) >= n {
			r = r[:n]
			for i := range r {
				r[i] = 0
			}
			return r
		}
	}
	return make([]int64, n)
}

func (m *Machine) putRegs(r []int64) { m.regPool = append(m.regPool, r) }

// OpCost is the fixed occupancy, in cycles, of an instruction, excluding
// memory stalls. The prefetch pass's loop-body latency estimate (the B of
// the paper's K = min(L/B, C) heuristic) uses the same table the
// interpreter charges.
func OpCost(op ir.Opcode) uint64 {
	switch op {
	case ir.OpMul:
		return 3
	case ir.OpDiv, ir.OpRem:
		return 8
	case ir.OpCall, ir.OpRet:
		return 2
	case ir.OpAlloc, ir.OpRand:
		return 2
	default:
		return 1
	}
}

func (m *Machine) nextRand() uint64 {
	// xorshift64*, deterministic across runs.
	x := m.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	m.rng = x
	return x * 0x2545F4914F6CDD1D
}

// call executes one function activation.
func (m *Machine) call(c *code, args []int64, depth int) (int64, error) {
	if depth >= m.cfg.MaxDepth {
		return 0, ErrMaxDepth
	}
	regs := m.getRegs(c.nregs)
	defer m.putRegs(regs)
	for i, p := range c.params {
		if i < len(args) {
			regs[p] = args[i]
		}
	}
	return m.stepFused(c, regs, depth)
}

// argValues copies argument registers into a scratch slice. A tiny
// free-list avoids per-call allocation in hot hook paths.
func (m *Machine) argValues(regs []int64, args []int32) []int64 {
	buf := m.argBuf
	m.argBuf = nil
	if cap(buf) < len(args) {
		buf = make([]int64, len(args))
	}
	buf = buf[:len(args)]
	for i, a := range args {
		buf[i] = regs[a]
	}
	return buf
}

func (m *Machine) releaseArgs(buf []int64) {
	if m.argBuf == nil {
		m.argBuf = buf
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
