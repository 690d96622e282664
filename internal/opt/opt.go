// Package opt implements the classic scalar optimisations a research
// compiler would run before profiling instrumentation: block-local constant
// folding and copy propagation, local common-subexpression elimination,
// global dead-code elimination, and loop-invariant code motion.
//
// The passes are deliberately conservative (no SSA form): block-local
// value tracking plus flow-insensitive liveness keeps every rewrite sound
// on arbitrary control flow. They exist for two reasons — to make the
// simulated programs behave like compiler output (the paper instruments
// *optimised* binaries), and to study interactions such as LICM hoisting
// the loop-invariant re-loads that otherwise exercise the stride profiler's
// zero-stride fast path (Figure 22).
package opt

import (
	"fmt"
	"sort"

	"stridepf/internal/cfg"
	"stridepf/internal/ir"
)

// Options selects passes. The zero value runs everything.
type Options struct {
	// Disable turns off individual passes by name: "constfold", "cse",
	// "dce", "licm".
	Disable map[string]bool
	// MaxIterations bounds the fold/cse/dce fixpoint loop; zero selects 8.
	MaxIterations int
}

// Stats reports what the optimiser did.
type Stats struct {
	// Folded counts instructions rewritten to constants or simpler forms.
	Folded int
	// CSE counts instructions replaced by copies of earlier results.
	CSE int
	// Removed counts dead instructions deleted.
	Removed int
	// Hoisted counts instructions moved to loop preheaders.
	Hoisted int
}

// Run optimises a clone of prog and returns it with pass statistics. The
// input program is untouched.
func Run(prog *ir.Program, opts Options) (*ir.Program, Stats, error) {
	if err := ir.VerifyProgram(prog); err != nil {
		return nil, Stats{}, err
	}
	if opts.MaxIterations == 0 {
		opts.MaxIterations = 8
	}
	out := ir.CloneProgram(prog)
	var st Stats

	names := make([]string, 0, len(out.Funcs))
	for n := range out.Funcs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := out.Funcs[n]
		f.RebuildEdges()
		if !opts.Disable["licm"] {
			st.Hoisted += licm(f)
		}
		for i := 0; i < opts.MaxIterations; i++ {
			changed := 0
			if !opts.Disable["constfold"] {
				changed += foldBlocks(f, &st)
			}
			if !opts.Disable["cse"] {
				changed += cseBlocks(f, &st)
			}
			if !opts.Disable["dce"] {
				changed += dce(f, &st)
			}
			if changed == 0 {
				break
			}
		}
		f.RebuildEdges()
	}
	if err := ir.VerifyProgram(out); err != nil {
		return nil, st, fmt.Errorf("opt: output invalid: %w", err)
	}
	return out, st, nil
}

// pure reports whether the instruction has no effects beyond writing Dst.
func pure(op ir.Opcode) bool {
	switch op {
	case ir.OpConst, ir.OpMov, ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv,
		ir.OpRem, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr,
		ir.OpAddI, ir.OpShlI, ir.OpShrI, ir.OpAndI,
		ir.OpCmpEQ, ir.OpCmpNE, ir.OpCmpLT, ir.OpCmpLE, ir.OpCmpGT, ir.OpCmpGE:
		return true
	}
	return false
}

// evalBinary folds a two-source op over constants, mirroring the machine's
// semantics exactly (including zero-divisor and shift-mask behaviour), as
// TestFoldsMatchMachine checks.
func evalBinary(op ir.Opcode, a, b int64) (int64, bool) {
	switch op {
	case ir.OpAdd:
		return a + b, true
	case ir.OpSub:
		return a - b, true
	case ir.OpMul:
		return a * b, true
	case ir.OpDiv:
		if b == 0 {
			return 0, true
		}
		return a / b, true
	case ir.OpRem:
		if b == 0 {
			return 0, true
		}
		return a % b, true
	case ir.OpAnd:
		return a & b, true
	case ir.OpOr:
		return a | b, true
	case ir.OpXor:
		return a ^ b, true
	case ir.OpShl:
		return a << (uint64(b) & 63), true
	case ir.OpShr:
		return a >> (uint64(b) & 63), true
	case ir.OpCmpEQ:
		return b2i(a == b), true
	case ir.OpCmpNE:
		return b2i(a != b), true
	case ir.OpCmpLT:
		return b2i(a < b), true
	case ir.OpCmpLE:
		return b2i(a <= b), true
	case ir.OpCmpGT:
		return b2i(a > b), true
	case ir.OpCmpGE:
		return b2i(a >= b), true
	}
	return 0, false
}

func evalImm(op ir.Opcode, a, imm int64) (int64, bool) {
	switch op {
	case ir.OpAddI:
		return a + imm, true
	case ir.OpShlI:
		return a << (uint64(imm) & 63), true
	case ir.OpShrI:
		return a >> (uint64(imm) & 63), true
	case ir.OpAndI:
		return a & imm, true
	}
	return 0, false
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// foldBlocks runs block-local constant folding and copy propagation.
func foldBlocks(f *ir.Function, st *Stats) int {
	changed := 0
	for _, b := range f.Blocks {
		consts := map[ir.Reg]int64{}
		copies := map[ir.Reg]ir.Reg{}
		kill := func(r ir.Reg) {
			delete(consts, r)
			// Any copy chain through r is invalid now.
			for dst, src := range copies {
				if src == r || dst == r {
					delete(copies, dst)
				}
			}
		}
		resolve := func(r ir.Reg) ir.Reg {
			if s, ok := copies[r]; ok {
				return s
			}
			return r
		}
		for _, in := range b.Instrs {
			// Predicated instructions may or may not execute: their operand
			// rewrite is still sound (same value either way), but their
			// definitions must conservatively kill tracked state, and they
			// must not be folded into different ops.
			predicated := in.Pred.Valid()
			if predicated {
				in.Pred = resolve(in.Pred)
			}

			// Copy-propagate sources.
			for i := range in.Src {
				if in.Src[i].Valid() {
					in.Src[i] = resolve(in.Src[i])
				}
			}
			for i := range in.Args {
				in.Args[i] = resolve(in.Args[i])
			}

			if !predicated {
				// Fold pure ops over known constants.
				switch {
				case in.Op == ir.OpMov:
					if c, ok := consts[in.Src[0]]; ok {
						in.Op = ir.OpConst
						in.Imm = c
						in.Src[0] = ir.NoReg
						st.Folded++
						changed++
					}
				case pure(in.Op) && in.Op != ir.OpConst:
					a, aok := consts[in.Src[0]]
					switch in.Op {
					case ir.OpAddI, ir.OpShlI, ir.OpShrI, ir.OpAndI:
						if aok {
							if v, ok := evalImm(in.Op, a, in.Imm); ok {
								in.Op = ir.OpConst
								in.Imm = v
								in.Src[0] = ir.NoReg
								st.Folded++
								changed++
							}
						}
					default:
						bc, bok := consts[in.Src[1]]
						if aok && bok {
							if v, ok := evalBinary(in.Op, a, bc); ok {
								in.Op = ir.OpConst
								in.Imm = v
								in.Src = [2]ir.Reg{ir.NoReg, ir.NoReg}
								st.Folded++
								changed++
							}
						}
					}
				}
			}

			// Record the definition.
			if in.Dst.Valid() {
				kill(in.Dst)
				if !predicated {
					switch in.Op {
					case ir.OpConst:
						consts[in.Dst] = in.Imm
					case ir.OpMov:
						if in.Src[0] != in.Dst {
							copies[in.Dst] = in.Src[0]
						}
					}
				}
			}
		}
	}
	return changed
}

// exprKey identifies a pure computation for local CSE.
type exprKey struct {
	op     ir.Opcode
	s0, s1 ir.Reg
	imm    int64
}

// cseBlocks replaces repeated pure computations within a block by moves
// from the first result.
func cseBlocks(f *ir.Function, st *Stats) int {
	changed := 0
	for _, b := range f.Blocks {
		avail := map[exprKey]ir.Reg{}
		for _, in := range b.Instrs {
			if in.Dst.Valid() {
				// A redefinition invalidates expressions using the register
				// (including the one that produced it).
				for k, r := range avail {
					if r == in.Dst || k.s0 == in.Dst || k.s1 == in.Dst {
						delete(avail, k)
					}
				}
			}
			if !pure(in.Op) || in.Op == ir.OpConst || in.Op == ir.OpMov || in.Pred.Valid() {
				continue
			}
			k := exprKey{op: in.Op, s0: in.Src[0], s1: in.Src[1], imm: in.Imm}
			if prev, ok := avail[k]; ok && prev != in.Dst {
				in.Op = ir.OpMov
				in.Src = [2]ir.Reg{prev, ir.NoReg}
				in.Imm = 0
				st.CSE++
				changed++
				continue
			}
			avail[k] = in.Dst
		}
	}
	return changed
}

// dce removes pure instructions whose results are never read anywhere in
// the function (flow-insensitive liveness, iterated by the driver loop).
func dce(f *ir.Function, st *Stats) int {
	used := make([]bool, f.NumRegs)
	markUses := func(in *ir.Instr) {
		if in.Pred.Valid() {
			used[in.Pred] = true
		}
		for _, s := range in.Src {
			if s.Valid() {
				used[s] = true
			}
		}
		for _, a := range in.Args {
			used[a] = true
		}
	}
	f.Instrs(func(_ *ir.Block, _ int, in *ir.Instr) { markUses(in) })
	// Parameters are observable by callers? No — params are inputs; results
	// flow through Ret's source which markUses covered.

	changed := 0
	for _, b := range f.Blocks {
		kept := b.Instrs[:0]
		for _, in := range b.Instrs {
			if pure(in.Op) && in.Dst.Valid() && !used[in.Dst] {
				st.Removed++
				changed++
				continue
			}
			kept = append(kept, in)
		}
		b.Instrs = kept
	}
	return changed
}

// licm hoists loop-invariant pure instructions with unique static
// definitions into a preheader. Loads are hoisted only when the loop body
// is free of stores, calls and hooks (no aliasing analysis: any write or
// callee might alias the load).
func licm(f *ir.Function) int {
	// Analyses are recomputed after each loop's transformation because
	// preheader insertion changes the CFG.
	hoisted := 0
	for iter := 0; iter < 16; iter++ {
		if h := licmOnce(f); h == 0 {
			break
		} else {
			hoisted += h
		}
	}
	return hoisted
}

func licmOnce(f *ir.Function) int {
	f.RebuildEdges()
	dom := cfg.Dominators(f)
	li := cfg.FindLoops(f, dom)

	defCount := make([]int, f.NumRegs)
	for _, p := range f.Params {
		defCount[p]++
	}
	f.Instrs(func(_ *ir.Block, _ int, in *ir.Instr) {
		if in.Dst.Valid() {
			defCount[in.Dst]++
		}
	})

	for _, l := range li.Loops {
		// Memory safety: loads move only out of write-free loops.
		writes := false
		for blk := range l.Blocks {
			for _, in := range blk.Instrs {
				switch in.Op {
				case ir.OpStore, ir.OpCall, ir.OpHook, ir.OpAlloc:
					writes = true
				}
			}
		}

		invariant := func(r ir.Reg) bool {
			if !r.Valid() {
				return true
			}
			for blk := range l.Blocks {
				for _, in := range blk.Instrs {
					if in.Defines(r) {
						return false
					}
				}
			}
			return true
		}

		// Exiting blocks: loop blocks with an edge out of the loop. A hoist
		// source must execute at least once whenever the loop is entered,
		// or a zero-trip traversal (header test fails immediately) would
		// execute the hoisted instruction in the preheader without ever
		// reaching its original block — growing the executed count the
		// differential oracle pins. The source therefore must dominate
		// every exiting block; the header itself may be exempted when the
		// loop's first header evaluation provably branches into the loop.
		var exiting []*ir.Block
		for blk := range l.Blocks {
			for _, succ := range blk.Succs() {
				if !l.Blocks[succ] {
					exiting = append(exiting, blk)
					break
				}
			}
		}
		entryProven := false
		entryChecked := false
		headerEntered := func() bool {
			if !entryChecked {
				entryChecked = true
				entryProven = firstIterationEnters(f, dom, l)
			}
			return entryProven
		}

		var candidates []*ir.Instr
		blockOf := map[*ir.Instr]*ir.Block{}
		// Iterate members in a deterministic order (loop membership is a
		// map): sort blocks by index so repeated runs hoist identically and
		// instruction IDs stay reproducible.
		members := make([]*ir.Block, 0, len(l.Blocks))
		for blk := range l.Blocks {
			members = append(members, blk)
		}
		sort.Slice(members, func(i, j int) bool { return members[i].Index < members[j].Index })
		for _, blk := range members {
			// Only hoist from blocks that execute at least once whenever
			// the loop is entered: the block must dominate all back-edge
			// sources (runs every iteration) and all exiting blocks (runs
			// even on a zero-trip traversal).
			for _, in := range blk.Instrs {
				movable := pure(in.Op) || (in.Op == ir.OpLoad && !writes)
				if !movable || in.Pred.Valid() || !in.Dst.Valid() {
					continue
				}
				if defCount[in.Dst] != 1 {
					continue
				}
				if !invariant(in.Src[0]) || !invariant(in.Src[1]) {
					continue
				}
				if !dominatesAllLatches(dom, l, blk) {
					continue
				}
				safe := true
				for _, e := range exiting {
					if dom.Dominates(blk, e) {
						continue
					}
					// The header is the one exit the block may skip: if the
					// first test provably enters the loop, every traversal
					// reaches a latch or a dominated exit — both behind blk.
					if e != l.Header || !headerEntered() {
						safe = false
						break
					}
				}
				if !safe {
					continue
				}
				candidates = append(candidates, in)
				blockOf[in] = blk
			}
		}
		if len(candidates) == 0 {
			continue
		}

		// Single entry edge required for a simple preheader.
		if len(l.EntryEdges) != 1 {
			continue
		}
		// Host the hoisted instructions at the end of the entry edge's
		// source block when it branches unconditionally to the header:
		// no new block, no new executed instruction. Splitting a
		// conditional entry edge would add a br that runs once per loop
		// entry — a net growth on single-trip loops, which the
		// differential oracle's never-grow bound forbids.
		pre := l.EntryEdges[0].From
		if term := pre.Terminator(); term == nil || term.Op != ir.OpBr {
			continue
		}

		n := 0
		for _, in := range candidates {
			blk := blockOf[in]
			idx := blk.IndexOf(in)
			if idx < 0 {
				continue
			}
			blk.Instrs = append(blk.Instrs[:idx], blk.Instrs[idx+1:]...)
			pre.InsertBefore(len(pre.Instrs)-1, in)
			n++
		}
		if n > 0 {
			return n // CFG changed: caller recomputes analyses
		}
	}
	return 0
}

func dominatesAllLatches(dom *cfg.DomTree, l *cfg.Loop, b *ir.Block) bool {
	for _, e := range l.BackEdges {
		if !dom.Dominates(b, e.From) {
			return false
		}
	}
	return true
}

// firstIterationEnters reports whether the loop's first header evaluation
// provably branches into the loop, i.e. the loop body runs at least once
// per entry. It resolves each register's value at loop entry (the single
// outside-loop unpredicated const def in a block dominating the header;
// in-loop defs have not executed yet), simulates the header's straight
// line over those constants, and folds the terminator's condition.
func firstIterationEnters(f *ir.Function, dom *cfg.DomTree, l *cfg.Loop) bool {
	term := l.Header.Terminator()
	if term == nil || term.Op != ir.OpCondBr || term.Pred.Valid() {
		return false
	}
	type def struct {
		in  *ir.Instr
		blk *ir.Block
	}
	outDefs := make(map[ir.Reg][]def)
	for _, blk := range f.Blocks {
		if l.Blocks[blk] {
			continue
		}
		for _, in := range blk.Instrs {
			if in.Dst.Valid() {
				outDefs[in.Dst] = append(outDefs[in.Dst], def{in, blk})
			}
		}
	}
	vals := make(map[ir.Reg]int64)
	params := make(map[ir.Reg]bool, len(f.Params))
	for _, p := range f.Params {
		params[p] = true
	}
	reentrant := loopReentrant(l)
	for r, ds := range outDefs {
		if len(ds) != 1 || params[r] {
			continue
		}
		// A register the loop itself writes only holds its outside const
		// on the *first* entry; if control can come back around to the
		// header after an exit, the stale in-loop value decides the test.
		if reentrant && definedInLoop(l, r) {
			continue
		}
		d := ds[0]
		if d.in.Op == ir.OpConst && !d.in.Pred.Valid() && dom.Dominates(d.blk, l.Header) {
			vals[r] = d.in.Imm
		}
	}
	for _, in := range l.Header.Instrs[:len(l.Header.Instrs)-1] {
		if !in.Dst.Valid() {
			continue
		}
		v, ok := evalEntry(in, vals)
		if ok && !in.Pred.Valid() {
			vals[in.Dst] = v
		} else {
			delete(vals, in.Dst)
		}
	}
	cond, ok := vals[term.Src[0]]
	if !ok {
		return false
	}
	taken := term.Targets[1]
	if cond != 0 {
		taken = term.Targets[0]
	}
	return l.Blocks[taken]
}

// loopReentrant reports whether control can reach the header again after
// leaving the loop, i.e. the loop may be entered more than once per call.
func loopReentrant(l *cfg.Loop) bool {
	seen := make(map[*ir.Block]bool)
	var stack []*ir.Block
	for blk := range l.Blocks {
		for _, succ := range blk.Succs() {
			if !l.Blocks[succ] && !seen[succ] {
				seen[succ] = true
				stack = append(stack, succ)
			}
		}
	}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, succ := range b.Succs() {
			if succ == l.Header {
				return true
			}
			if !seen[succ] {
				seen[succ] = true
				stack = append(stack, succ)
			}
		}
	}
	return false
}

func definedInLoop(l *cfg.Loop, r ir.Reg) bool {
	for blk := range l.Blocks {
		for _, in := range blk.Instrs {
			if in.Dst == r {
				return true
			}
		}
	}
	return false
}

// evalEntry folds one instruction over known constant register values.
func evalEntry(in *ir.Instr, vals map[ir.Reg]int64) (int64, bool) {
	switch in.Op {
	case ir.OpConst:
		return in.Imm, true
	case ir.OpMov:
		v, ok := vals[in.Src[0]]
		return v, ok
	case ir.OpAddI, ir.OpShlI, ir.OpShrI, ir.OpAndI:
		a, ok := vals[in.Src[0]]
		if !ok {
			return 0, false
		}
		return evalImm(in.Op, a, in.Imm)
	}
	if !in.Src[0].Valid() || !in.Src[1].Valid() {
		return 0, false
	}
	a, aok := vals[in.Src[0]]
	b, bok := vals[in.Src[1]]
	if !aok || !bok {
		return 0, false
	}
	return evalBinary(in.Op, a, b)
}
