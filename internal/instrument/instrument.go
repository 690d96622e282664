// Package instrument implements the profiling instrumentation passes of the
// paper's Section 3: edge- and block-frequency counter insertion, and the
// five stride-profiling strategies —
//
//   - two-pass (select loads using a previously collected edge profile),
//   - naive-loop and naive-all (profile every in-loop / every load),
//   - block-check and edge-check (guard the strideProf call with a
//     trip-count predicate computed from partially collected frequency
//     counters, Figures 11-14),
//
// each combinable with the sampling configuration of package stride to form
// the paper's sample-* variants.
//
// Frequency counters live in simulated memory (a dedicated counter segment)
// and are updated with ordinary load/add/store sequences, so instrumentation
// cost flows through the simulated cache hierarchy exactly as it would on
// hardware. The strideProf runtime is invoked through a machine hook whose
// cycle cost is modelled by stride.CostModel.
package instrument

import (
	"fmt"
	"math"
	"sort"

	"stridepf/internal/blpath"
	"stridepf/internal/cfg"
	"stridepf/internal/ir"
	"stridepf/internal/machine"
	"stridepf/internal/profile"
	"stridepf/internal/stride"
)

// Method selects the instrumentation strategy.
type Method int

// Instrumentation methods (Section 3.2 and Section 4's evaluation set).
const (
	// EdgeOnly inserts only edge-frequency counters; it is the overhead
	// baseline of Figure 20.
	EdgeOnly Method = iota
	// TwoPass inserts unguarded strideProf calls for in-loop loads selected
	// with a prior edge profile (Options.PriorEdge), plus edge counters.
	TwoPass
	// NaiveLoop profiles every in-loop load, unguarded.
	NaiveLoop
	// NaiveAll profiles every load, in-loop and out-loop, unguarded.
	NaiveAll
	// BlockCheck uses block-frequency counters and guards strideProf calls
	// with the trip-count predicate of Figure 11.
	BlockCheck
	// EdgeCheck uses edge-frequency counters and guards strideProf calls
	// with the trip-count predicate of Figures 12-14.
	EdgeCheck
	// Paths is EdgeCheck extended with Ball–Larus k-iteration path
	// profiling (package blpath): a path register maintained on loop edges
	// is passed to every strideProf call, and the runtime attributes each
	// sample to a per-(load, path-id) bucket on top of the aggregate
	// profile. Summing a load's buckets reproduces its EdgeCheck profile
	// exactly; the buckets expose per-path regularity the aggregate hides.
	Paths
)

// CounterBase is the simulated address of the profiling counter segment.
const CounterBase uint64 = 0x0800_0000

// Options parameterises instrumentation.
type Options struct {
	// Method is the instrumentation strategy.
	Method Method
	// Stride configures the profiling runtime (sampling, enhanced mode...).
	Stride stride.Config
	// TripThreshold is TT, the trip-count threshold guarding strideProf in
	// the check methods and selecting loads in TwoPass; zero selects 128.
	TripThreshold int
	// PriorEdge is the first-pass edge profile required by TwoPass.
	PriorEdge *profile.EdgeProfile
	// PathK is the iteration span of one path id under the Paths method;
	// zero selects blpath.DefaultK.
	PathK int
}

func (o *Options) fill() {
	if o.TripThreshold == 0 {
		o.TripThreshold = 128
	}
}

// ProfiledLoad describes one load selected for stride profiling.
type ProfiledLoad struct {
	// Key identifies the load in the original program.
	Key machine.LoadKey
	// DataIndex is the stride-runtime record index baked into the hook call.
	DataIndex int
	// InLoop reports whether the load is inside a (reducible) loop.
	InLoop bool
}

// Result is an instrumented program plus everything needed to run it and to
// recover profiles afterwards.
type Result struct {
	// Prog is the instrumented clone; the original program is untouched.
	Prog *ir.Program
	// Method echoes the strategy used.
	Method Method
	// Runtime is the stride-profiling runtime the program's hooks call (nil
	// for EdgeOnly); Hooks binds it.
	Runtime *stride.Runtime
	// Profiled lists the loads selected for stride profiling.
	Profiled []ProfiledLoad
	// edgeAddrs maps original-CFG edges to counter addresses.
	edgeAddrs map[profile.EdgeKey]uint64
	// entryAddrs maps function names to entry-counter addresses.
	entryAddrs map[string]uint64
	// blockAddrs maps (func, block index) to counter addresses (BlockCheck).
	blockAddrs map[blockKey]uint64
	// nextCounter is the bump pointer for counter slots.
	nextCounter uint64
}

type blockKey struct {
	fn    string
	block int
}

// Instrument clones prog and applies the selected instrumentation. The
// input program must verify; block indices of the input identify edges in
// the resulting profile.
func Instrument(prog *ir.Program, opts Options) (*Result, error) {
	opts.fill()
	if err := ir.VerifyProgram(prog); err != nil {
		return nil, err
	}
	if opts.Method == TwoPass && opts.PriorEdge == nil {
		return nil, fmt.Errorf("instrument: two-pass method requires Options.PriorEdge")
	}
	if opts.Method == Paths {
		// The hook protocol changes with the method, so the runtime must
		// agree regardless of how the caller filled the stride config.
		opts.Stride.Paths = true
	}
	res := &Result{
		Prog:        ir.CloneProgram(prog),
		Method:      opts.Method,
		edgeAddrs:   make(map[profile.EdgeKey]uint64),
		entryAddrs:  make(map[string]uint64),
		blockAddrs:  make(map[blockKey]uint64),
		nextCounter: CounterBase,
	}
	if opts.Method != EdgeOnly {
		res.Runtime = stride.NewRuntime(opts.Stride)
	}

	names := make([]string, 0, len(res.Prog.Funcs))
	for n := range res.Prog.Funcs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if err := instrumentFunc(res, res.Prog.Funcs[n], opts); err != nil {
			return nil, fmt.Errorf("instrument: %s: %w", n, err)
		}
	}
	if err := ir.VerifyProgram(res.Prog); err != nil {
		return nil, fmt.Errorf("instrument: output invalid: %w", err)
	}
	return res, nil
}

// allocCounter reserves an 8-byte counter slot.
func (res *Result) allocCounter() uint64 {
	a := res.nextCounter
	res.nextCounter += 8
	return a
}

// ExtractEdgeProfile reads the edge counters out of the machine's memory
// after an instrumented run. For BlockCheck instrumentation (which counts
// blocks, not edges) use ExtractBlockFreqs.
func (res *Result) ExtractEdgeProfile(m *machine.Machine) *profile.EdgeProfile {
	p := profile.NewEdgeProfile()
	for k, addr := range res.edgeAddrs {
		p.Set(k, uint64(m.Mem.Load(addr)))
	}
	for fn, addr := range res.entryAddrs {
		p.SetEntryCount(fn, uint64(m.Mem.Load(addr)))
	}
	return p
}

// ExtractBlockFreqs reads block counters (BlockCheck method) keyed by
// function name and block index.
func (res *Result) ExtractBlockFreqs(m *machine.Machine) map[string]map[int]uint64 {
	out := make(map[string]map[int]uint64)
	for k, addr := range res.blockAddrs {
		fm := out[k.fn]
		if fm == nil {
			fm = make(map[int]uint64)
			out[k.fn] = fm
		}
		fm[k.block] = uint64(m.Mem.Load(addr))
	}
	return out
}

// Hooks returns the hook bindings the instrumented program needs, for
// machine.Config.Hooks or machine.Lane.Hooks: the stride runtime's, or nil
// for EdgeOnly.
func (res *Result) Hooks() map[int64]machine.HookFunc {
	if res.Runtime == nil {
		return nil
	}
	return res.Runtime.Hooks()
}

// StrideSummaries returns the collected stride profile (nil Runtime yields
// nil).
func (res *Result) StrideSummaries() []stride.Summary {
	if res.Runtime == nil {
		return nil
	}
	return res.Runtime.Summarize()
}

// funcCtx carries the per-function instrumentation state.
type funcCtx struct {
	res  *Result
	f    *ir.Function
	opts Options

	zeroReg ir.Reg // holds 0; base register for counter addressing
	tmpReg  ir.Reg // scratch for counter increments
	idxReg  ir.Reg // scratch for hook data-index constants
	addrReg ir.Reg // scratch for hook effective addresses
	prdReg  ir.Reg // scratch for composed predicates
	pidReg  ir.Reg // path register (Paths method only)
	pkReg   ir.Reg // scratch for rotations and the -1 sentinel (Paths)

	li   *cfg.LoopInfo
	dom  *cfg.DomTree
	pdom *cfg.DomTree
	defs *cfg.Defs

	// loopPred maps a loop to its trip-count predicate register.
	loopPred map[*cfg.Loop]ir.Reg
	// entryKeys and headerExitKeys hold the original-CFG counter keys for
	// each predicate loop, captured before edge splitting.
	entryKeys      map[*cfg.Loop][]profile.EdgeKey
	headerExitKeys map[*cfg.Loop][]profile.EdgeKey

	// Paths method: path-register maintenance keyed by original-CFG edge
	// keys (computed by blpath.Number before any surgery) so the updates
	// piggyback on the edge-counter sites.
	loopNum     map[*cfg.Loop]*blpath.Numbering
	pathIncs    map[profile.EdgeKey]int64
	pathBacks   map[profile.EdgeKey]*pathRotation
	pathEntries map[profile.EdgeKey]bool
}

// pathRotation is the back-edge history-rotation recipe of one loop.
type pathRotation struct {
	val  int64 // Ball–Larus increment of the back edge itself
	n, m int64 // base N and modulus N^(K-1)
	k    int
}

func instrumentFunc(res *Result, f *ir.Function, opts Options) error {
	f.RebuildEdges()
	fc := &funcCtx{
		res: res, f: f, opts: opts,
		loopPred:       make(map[*cfg.Loop]ir.Reg),
		entryKeys:      make(map[*cfg.Loop][]profile.EdgeKey),
		headerExitKeys: make(map[*cfg.Loop][]profile.EdgeKey),
		loopNum:        make(map[*cfg.Loop]*blpath.Numbering),
		pathIncs:       make(map[profile.EdgeKey]int64),
		pathBacks:      make(map[profile.EdgeKey]*pathRotation),
		pathEntries:    make(map[profile.EdgeKey]bool),
	}
	fc.dom = cfg.Dominators(f)
	fc.pdom = cfg.PostDominators(f)
	fc.li = cfg.FindLoops(f, fc.dom)
	fc.defs = cfg.ComputeDefs(f)

	fc.zeroReg = f.NewReg()
	fc.tmpReg = f.NewReg()
	fc.idxReg = f.NewReg()
	fc.addrReg = f.NewReg()
	fc.prdReg = f.NewReg()
	if opts.Method == Paths {
		fc.pidReg = f.NewReg()
		fc.pkReg = f.NewReg()
	}

	// Select profiled loads before any blocks are added, so block indices
	// in profiles refer to the original CFG.
	loads := fc.selectProfiledLoads()

	// Counter addressing uses [zeroReg + absolute address]; initialise the
	// base register once at function entry.
	zc := ir.NewInstr(ir.OpConst)
	zc.Dst = fc.zeroReg
	zc.Imm = 0
	zc.ID = f.NextInstrID()
	zc.Comment = "profbase"
	f.Entry().InsertBefore(0, zc)

	// Function entry counter (call counts; used for block frequencies in
	// functions whose entry has no incoming edges).
	if opts.Method != BlockCheck {
		entryAddr := res.allocCounter()
		res.entryAddrs[f.Name] = entryAddr
		fc.insertCounterIncr(f.Entry(), 1, entryAddr)
	}

	// Original edges, keyed by original block indices.
	type origEdge struct {
		from, to *ir.Block
		key      profile.EdgeKey
	}
	var edges []origEdge
	if opts.Method != BlockCheck {
		for _, b := range f.Blocks {
			seen := map[*ir.Block]bool{}
			for _, s := range b.Succs() {
				if seen[s] {
					continue
				}
				seen[s] = true
				edges = append(edges, origEdge{b, s, profile.EdgeKey{Func: f.Name, From: b.Index, To: s.Index}})
			}
		}
	}

	// The check methods guard strideProf calls with a per-loop trip-count
	// predicate computed on the loop's entry edges; those edges are split so
	// the predicate code runs exactly when the loop is entered from outside.
	needPred := map[*cfg.Loop]bool{}
	if opts.Method == EdgeCheck || opts.Method == BlockCheck || opts.Method == Paths {
		for _, pl := range loads {
			blk, _ := f.FindInstr(pl.key.ID)
			if l := fc.li.InnermostLoop(blk); l != nil {
				needPred[l] = true
			}
		}
	}
	// Paths: number the eligible profiled loops on the still-clean CFG, so
	// increments are keyed by the same original edge keys as the counters
	// (and so the feedback pass can recompute the identical numbering on
	// the uninstrumented program). Ineligible loops stay unnumbered; their
	// loads are hooked with the -1 sentinel id.
	if opts.Method == Paths {
		for _, l := range fc.li.Loops {
			if !needPred[l] {
				continue
			}
			n := blpath.Number(f, fc.li, l, opts.PathK)
			if n == nil {
				continue
			}
			fc.loopNum[l] = n
			for e, v := range n.Increments() {
				fc.pathIncs[profile.EdgeKey{Func: f.Name, From: e.From, To: e.To}] = v
			}
			for e, v := range n.BackEdges() {
				fc.pathBacks[profile.EdgeKey{Func: f.Name, From: e.From, To: e.To}] =
					&pathRotation{val: v, n: n.N, m: n.M, k: n.K}
			}
			for _, e := range n.EntryEdges() {
				fc.pathEntries[profile.EdgeKey{Func: f.Name, From: e.From, To: e.To}] = true
			}
		}
	}
	// Counter lookups in the predicate code must use the ORIGINAL edge keys:
	// splitting (for entry predicates or for counter placement) retargets
	// branches, so capture the keys before any CFG surgery.
	for l := range needPred {
		for _, e := range l.EntryEdges {
			fc.entryKeys[l] = append(fc.entryKeys[l],
				profile.EdgeKey{Func: f.Name, From: e.From.Index, To: e.To.Index})
		}
		for _, e := range l.HeaderExitEdges() {
			fc.headerExitKeys[l] = append(fc.headerExitKeys[l],
				profile.EdgeKey{Func: f.Name, From: e.From.Index, To: e.To.Index})
		}
	}
	// Split entry edges of predicate loops; record the split block per edge.
	splitBlocks := map[cfg.Edge]*ir.Block{}
	for _, l := range fc.li.Loops {
		if !needPred[l] {
			continue
		}
		fc.loopPred[l] = f.NewReg()
		for _, e := range l.EntryEdges {
			mid := f.SplitEdge(e.From, e.To)
			splitBlocks[e] = mid
		}
	}
	f.RebuildEdges()

	// Insert frequency counters.
	switch opts.Method {
	case BlockCheck:
		fc.insertBlockCounters()
	default:
		for _, e := range edges {
			addr := res.allocCounter()
			res.edgeAddrs[e.key] = addr
			if mid, ok := splitBlockFor(splitBlocks, e.from, e.to); ok {
				// The split block sits on this edge; count there.
				fc.insertCounterIncr(mid, len(mid.Instrs)-1, addr)
				fc.insertPathOps(mid, true, e.key)
				continue
			}
			b, atEnd := fc.edgeSite(e.from, e.to)
			pos := 0
			if atEnd {
				pos = len(b.Instrs) - 1
			}
			fc.insertCounterIncr(b, pos, addr)
			// Path-register updates share the counter's site: the site runs
			// exactly when the edge is traversed, which is the update's
			// correctness condition too.
			fc.insertPathOps(b, atEnd, e.key)
		}
	}

	// Trip-count predicate computation (Figures 11-14).
	for _, l := range fc.li.Loops {
		if !needPred[l] {
			continue
		}
		switch opts.Method {
		case EdgeCheck, Paths:
			fc.insertEdgePredicate(l, splitBlocks)
		case BlockCheck:
			fc.insertBlockPredicate(l, splitBlocks)
		}
	}

	// strideProf hook insertion.
	for _, pl := range loads {
		fc.insertHook(pl)
	}

	res.Prog.Funcs[f.Name] = f
	f.RebuildEdges()
	return nil
}

func splitBlockFor(m map[cfg.Edge]*ir.Block, from, to *ir.Block) (*ir.Block, bool) {
	b, ok := m[cfg.Edge{From: from, To: to}]
	return b, ok
}

// selected is an internal profiled-load record.
type selected struct {
	key    machine.LoadKey
	inLoop bool
}

// selectProfiledLoads applies the per-method load-selection policy,
// including the loop-invariant-address filter and the equivalent-load
// reduction for the refined methods (Section 3.2).
func (fc *funcCtx) selectProfiledLoads() []selected {
	if fc.opts.Method == EdgeOnly {
		return nil
	}
	var candidates []*ir.Instr
	inLoop := map[*ir.Instr]bool{}
	fc.f.Instrs(func(b *ir.Block, _ int, in *ir.Instr) {
		if in.Op != ir.OpLoad {
			return
		}
		il := fc.li.InLoop(b)
		switch fc.opts.Method {
		case NaiveAll:
			candidates = append(candidates, in)
			inLoop[in] = il
		case NaiveLoop:
			if il {
				candidates = append(candidates, in)
				inLoop[in] = true
			}
		case TwoPass, EdgeCheck, BlockCheck, Paths:
			if !il {
				return
			}
			loop := fc.li.InnermostLoop(b)
			// Don't profile loads whose addresses are loop invariant.
			if cfg.LoopInvariantReg(loop, in.Src[0]) {
				return
			}
			if fc.opts.Method == TwoPass {
				// Select only loads in loops whose measured trip count
				// exceeds TT.
				tc := fc.opts.PriorEdge.TripCount(fc.f.Name, loop)
				if tc <= float64(fc.opts.TripThreshold) {
					return
				}
			}
			candidates = append(candidates, in)
			inLoop[in] = true
		}
	})

	// Equivalent-load reduction for the refined methods: only the
	// representative of each set is profiled.
	switch fc.opts.Method {
	case TwoPass, EdgeCheck, BlockCheck, Paths:
		ce := cfg.NewControlEquiv(fc.dom, fc.pdom)
		sets := cfg.FindEquivalentLoads(fc.f, fc.li, ce, fc.defs, candidates)
		candidates = candidates[:0]
		for _, s := range sets {
			candidates = append(candidates, s.Rep().Instr)
		}
	}

	out := make([]selected, 0, len(candidates))
	for _, in := range candidates {
		key := machine.LoadKey{Func: fc.f.Name, ID: in.ID}
		out = append(out, selected{key: key, inLoop: inLoop[in]})
		idx := fc.res.Runtime.AddLoad(key)
		fc.res.Profiled = append(fc.res.Profiled, ProfiledLoad{
			Key:       key,
			DataIndex: idx,
			InLoop:    inLoop[in],
		})
	}
	return out
}

// insertCounterIncr inserts "tmp = load [zr+addr]; tmp++; store" at
// position pos of block b.
func (fc *funcCtx) insertCounterIncr(b *ir.Block, pos int, addr uint64) {
	// Keep the counter-base initialisation first in the entry block.
	if b == fc.f.Entry() && pos == 0 && len(b.Instrs) > 0 &&
		b.Instrs[0].Op == ir.OpConst && b.Instrs[0].Dst == fc.zeroReg {
		pos = 1
	}
	ld := ir.NewInstr(ir.OpLoad)
	ld.Dst = fc.tmpReg
	ld.Src[0] = fc.zeroRegInit(b)
	ld.Imm = int64(addr)
	ld.ID = fc.f.NextInstrID()
	ld.Comment = "profctr"

	inc := ir.NewInstr(ir.OpAddI)
	inc.Dst = fc.tmpReg
	inc.Src[0] = fc.tmpReg
	inc.Imm = 1
	inc.ID = fc.f.NextInstrID()

	st := ir.NewInstr(ir.OpStore)
	st.Src[0] = ld.Src[0]
	st.Src[1] = fc.tmpReg
	st.Imm = int64(addr)
	st.ID = fc.f.NextInstrID()

	b.InsertBefore(pos, st)
	b.InsertBefore(pos, inc)
	b.InsertBefore(pos, ld)
}

// zeroRegInit returns the function's counter base register (initialised at
// function entry by instrumentFunc).
func (fc *funcCtx) zeroRegInit(*ir.Block) ir.Reg { return fc.zeroReg }

// edgeSite picks the cheapest sound location for code that must run
// exactly when edge from->to is traversed: the source block when it has a
// single distinct successor, the destination when it has a single
// predecessor, otherwise a fresh split block on the edge. The boolean
// reports end-of-block placement (before the terminator) vs top-of-block.
func (fc *funcCtx) edgeSite(from, to *ir.Block) (*ir.Block, bool) {
	if distinctSuccs(from) == 1 {
		return from, true
	}
	if len(to.Preds) == 1 && !parallelEdge(from, to) {
		return to, false
	}
	mid := fc.f.SplitEdge(from, to)
	fc.f.RebuildEdges()
	return mid, true
}

// insertPathOps emits the Paths method's path-register maintenance for the
// given original edge at the edge's counter site: body-edge increments,
// the back-edge history rotation (which first folds in the back edge's own
// increment so the rotated-in digit is the completed iteration's full path
// id), and the entry-edge reset.
func (fc *funcCtx) insertPathOps(b *ir.Block, atEnd bool, key profile.EdgeKey) {
	if fc.opts.Method != Paths {
		return
	}
	inc, hasInc := fc.pathIncs[key]
	rot, hasRot := fc.pathBacks[key]
	entry := fc.pathEntries[key]
	if !hasInc && !hasRot && !entry {
		return
	}
	pos := 0
	if atEnd {
		pos = len(b.Instrs) - 1
	}
	emit := func(in *ir.Instr) {
		in.ID = fc.f.NextInstrID()
		b.InsertBefore(pos, in)
		pos++
	}
	if hasInc {
		add := ir.NewInstr(ir.OpAddI)
		add.Dst = fc.pidReg
		add.Src[0] = fc.pidReg
		add.Imm = inc
		add.Comment = "pathnum"
		emit(add)
	}
	if hasRot {
		if rot.k == 1 {
			// No history: a new iteration simply restarts at prefix 0.
			c := ir.NewInstr(ir.OpConst)
			c.Dst = fc.pidReg
			c.Imm = 0
			c.Comment = "pathnum"
			emit(c)
		} else {
			if rot.val != 0 {
				add := ir.NewInstr(ir.OpAddI)
				add.Dst = fc.pidReg
				add.Src[0] = fc.pidReg
				add.Imm = rot.val
				add.Comment = "pathnum"
				emit(add)
			}
			cm := ir.NewInstr(ir.OpConst)
			cm.Dst = fc.pkReg
			cm.Imm = rot.m
			cm.Comment = "pathnum"
			emit(cm)
			rem := ir.NewInstr(ir.OpRem)
			rem.Dst = fc.pidReg
			rem.Src[0] = fc.pidReg
			rem.Src[1] = fc.pkReg
			emit(rem)
			cn := ir.NewInstr(ir.OpConst)
			cn.Dst = fc.pkReg
			cn.Imm = rot.n
			emit(cn)
			mul := ir.NewInstr(ir.OpMul)
			mul.Dst = fc.pidReg
			mul.Src[0] = fc.pidReg
			mul.Src[1] = fc.pkReg
			emit(mul)
		}
	}
	if entry {
		c := ir.NewInstr(ir.OpConst)
		c.Dst = fc.pidReg
		c.Imm = 0
		c.Comment = "pathnum"
		emit(c)
	}
}

func distinctSuccs(b *ir.Block) int {
	seen := map[*ir.Block]bool{}
	for _, s := range b.Succs() {
		seen[s] = true
	}
	return len(seen)
}

// parallelEdge reports whether from's terminator targets to more than once
// (a condbr with equal targets); such an edge pair shares one counter which
// must count a single traversal, so head-of-to placement (which would count
// once anyway) is fine, but split placement would under-count. We fall back
// to source placement semantics by treating it as needing a split of only
// one target; counting at to's head is correct since both edges land there.
func parallelEdge(from, to *ir.Block) bool {
	n := 0
	for _, s := range from.Succs() {
		if s == to {
			n++
		}
	}
	return n > 1
}

// insertBlockCounters gives every block a counter incremented at its top.
func (fc *funcCtx) insertBlockCounters() {
	// Snapshot: counter insertion appends no blocks, but iterate over a
	// copy anyway for clarity.
	blocks := append([]*ir.Block(nil), fc.f.Blocks...)
	for _, b := range blocks {
		addr := fc.res.allocCounter()
		fc.res.blockAddrs[blockKey{fn: fc.f.Name, block: b.Index}] = addr
		fc.insertCounterIncr(b, 0, addr)
	}
}

// insertEdgePredicate emits, in every split entry block of loop l, the
// Figure 13/14 sequence: r1 = sum of entry-edge counters, r2 = sum of the
// header's outgoing-edge counters, r2 >>= W, pred = r2 > r1.
func (fc *funcCtx) insertEdgePredicate(l *cfg.Loop, splitBlocks map[cfg.Edge]*ir.Block) {
	w := int64(math.Floor(math.Log2(float64(fc.opts.TripThreshold))))
	pred := fc.loopPred[l]
	r1 := fc.f.NewReg()
	r2 := fc.f.NewReg()

	for _, e := range l.EntryEdges {
		mid := splitBlocks[e]
		if mid == nil {
			continue
		}
		pos := len(mid.Instrs) - 1 // before the terminator

		emit := func(in *ir.Instr) {
			in.ID = fc.f.NextInstrID()
			mid.InsertBefore(pos, in)
			pos++
		}
		// r1 = 0; r1 += counter(e') for each entry edge e'.
		c := ir.NewInstr(ir.OpConst)
		c.Dst = r1
		c.Imm = 0
		c.Comment = "tripcheck"
		emit(c)
		for _, key := range fc.entryKeys[l] {
			addr := fc.res.edgeAddrs[key]
			ld := ir.NewInstr(ir.OpLoad)
			ld.Dst = fc.tmpReg
			ld.Src[0] = fc.zeroRegInit(mid)
			ld.Imm = int64(addr)
			emit(ld)
			add := ir.NewInstr(ir.OpAdd)
			add.Dst = r1
			add.Src[0] = r1
			add.Src[1] = fc.tmpReg
			emit(add)
		}
		// r2 = sum of header outgoing-edge counters.
		c2 := ir.NewInstr(ir.OpConst)
		c2.Dst = r2
		c2.Imm = 0
		emit(c2)
		for _, key := range fc.headerExitKeys[l] {
			addr := fc.res.edgeAddrs[key]
			ld := ir.NewInstr(ir.OpLoad)
			ld.Dst = fc.tmpReg
			ld.Src[0] = fc.zeroRegInit(mid)
			ld.Imm = int64(addr)
			emit(ld)
			add := ir.NewInstr(ir.OpAdd)
			add.Dst = r2
			add.Src[0] = r2
			add.Src[1] = fc.tmpReg
			emit(add)
		}
		// r2 >>= W; pred = r2 > r1.
		sh := ir.NewInstr(ir.OpShrI)
		sh.Dst = r2
		sh.Src[0] = r2
		sh.Imm = w
		emit(sh)
		cmp := ir.NewInstr(ir.OpCmpGT)
		cmp.Dst = pred
		cmp.Src[0] = r2
		cmp.Src[1] = r1
		emit(cmp)
	}
}

// insertBlockPredicate emits the Figure 11 sequence in each split entry
// block (which acts as the loop preheader): r1 = sum of preheader block
// counters, r2 = header block counter, pred = (r2 >> W) > r1.
func (fc *funcCtx) insertBlockPredicate(l *cfg.Loop, splitBlocks map[cfg.Edge]*ir.Block) {
	w := int64(math.Floor(math.Log2(float64(fc.opts.TripThreshold))))
	pred := fc.loopPred[l]
	r1 := fc.f.NewReg()
	r2 := fc.f.NewReg()

	for _, e := range l.EntryEdges {
		mid := splitBlocks[e]
		if mid == nil {
			continue
		}
		pos := len(mid.Instrs) - 1
		emit := func(in *ir.Instr) {
			in.ID = fc.f.NextInstrID()
			mid.InsertBefore(pos, in)
			pos++
		}
		c := ir.NewInstr(ir.OpConst)
		c.Dst = r1
		c.Imm = 0
		c.Comment = "tripcheck"
		emit(c)
		for _, ee := range l.EntryEdges {
			mid2 := splitBlocks[ee]
			if mid2 == nil {
				continue
			}
			addr := fc.res.blockAddrs[blockKey{fn: fc.f.Name, block: mid2.Index}]
			ld := ir.NewInstr(ir.OpLoad)
			ld.Dst = fc.tmpReg
			ld.Src[0] = fc.zeroRegInit(mid)
			ld.Imm = int64(addr)
			emit(ld)
			add := ir.NewInstr(ir.OpAdd)
			add.Dst = r1
			add.Src[0] = r1
			add.Src[1] = fc.tmpReg
			emit(add)
		}
		addr := fc.res.blockAddrs[blockKey{fn: fc.f.Name, block: l.Header.Index}]
		ld := ir.NewInstr(ir.OpLoad)
		ld.Dst = r2
		ld.Src[0] = fc.zeroRegInit(mid)
		ld.Imm = int64(addr)
		emit(ld)
		sh := ir.NewInstr(ir.OpShrI)
		sh.Dst = r2
		sh.Src[0] = r2
		sh.Imm = w
		emit(sh)
		cmp := ir.NewInstr(ir.OpCmpGT)
		cmp.Dst = pred
		cmp.Src[0] = r2
		cmp.Src[1] = r1
		emit(cmp)
	}
}

// insertHook inserts the strideProf invocation before the profiled load:
//
//	idxReg  = const dataIndex
//	addrReg = addi base, disp      ; effective address
//	(pred)? hook HookID, idxReg, addrReg
//
// In the check methods the hook is guarded by the loop's trip-count
// predicate, composed with the load's own qualifying predicate if any
// (Figure 14's predicated-load case).
func (fc *funcCtx) insertHook(pl selected) {
	blk, idx := fc.f.FindInstr(pl.key.ID)
	if blk == nil {
		return
	}
	load := blk.Instrs[idx]

	var dataIndex int
	found := false
	for _, p := range fc.res.Profiled {
		if p.Key == pl.key {
			dataIndex = p.DataIndex
			found = true
			break
		}
	}
	if !found {
		return
	}

	pos := idx
	emit := func(in *ir.Instr) {
		in.ID = fc.f.NextInstrID()
		blk.InsertBefore(pos, in)
		pos++
	}

	c := ir.NewInstr(ir.OpConst)
	c.Dst = fc.idxReg
	c.Imm = int64(dataIndex)
	c.Comment = "strideprof"
	emit(c)

	ea := ir.NewInstr(ir.OpAddI)
	ea.Dst = fc.addrReg
	ea.Src[0] = load.Src[0]
	ea.Imm = load.Imm
	emit(ea)

	hook := ir.NewInstr(ir.OpHook)
	hook.Imm = stride.HookID
	hook.Args = []ir.Reg{fc.idxReg, fc.addrReg}
	if fc.opts.Method == Paths {
		// Third argument: the load's path register, or the -1 sentinel for
		// loads whose loop could not be numbered (irreducible, too many
		// paths, or not a loop at all).
		preg := fc.pkReg
		if l := fc.li.InnermostLoop(blk); l != nil && fc.loopNum[l] != nil {
			preg = fc.pidReg
		} else {
			sent := ir.NewInstr(ir.OpConst)
			sent.Dst = fc.pkReg
			sent.Imm = -1
			sent.Comment = "pathnum"
			emit(sent)
		}
		hook.Args = append(hook.Args, preg)
	}

	// Guard with the trip-count predicate where applicable.
	var guard ir.Reg = ir.NoReg
	if fc.opts.Method == EdgeCheck || fc.opts.Method == BlockCheck || fc.opts.Method == Paths {
		if l := fc.li.InnermostLoop(blk); l != nil {
			if pr, ok := fc.loopPred[l]; ok {
				guard = pr
			}
		}
	}
	switch {
	case guard.Valid() && load.Pred.Valid():
		and := ir.NewInstr(ir.OpAnd)
		and.Dst = fc.prdReg
		and.Src[0] = guard
		and.Src[1] = load.Pred
		emit(and)
		hook.Pred = fc.prdReg
	case guard.Valid():
		hook.Pred = guard
	case load.Pred.Valid():
		hook.Pred = load.Pred
	}
	emit(hook)
}
