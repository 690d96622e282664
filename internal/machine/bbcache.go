// Basic-block dispatch cache: the translation layer behind the step loop
// (stepfused.go).
//
// On first entry to a function the step loop translates its decoded
// instructions into a compact pre-resolved execution form — an []xinstr per
// block — and caches it on the code (code.xb). The fused translation buys
// three things over per-instruction interpretation:
//
//   - the per-instruction overheads (instruction count, budget check,
//     predicate test, cost charge, dispatch switch) are hoisted to once per
//     xinstr, and an xinstr can cover many source instructions (a full micro
//     group plus its folded constants and the block's branch);
//   - a compare feeding the conditional branch on its result dispatches as
//     one compare+branch superinstruction (see DESIGN.md for the measured
//     pair and xinstr counts behind this rule);
//   - the remaining straight-line ALU runs execute as micro groups whose
//     members skip everything but the operation itself, with single-use
//     constants folded into their consumers' immediate operands. A block's
//     branch ends its group, so a group and the transfer dispatch as one
//     xinstr; a branch with no ALU work before it is a group of zero micros.
//
// The fusion rules only merge instruction sequences with no observation
// point (hierarchy access, hook call, nested call) between the merged
// members, so charging their fixed costs in one lump is invisible; memory,
// hook and call instructions stay singletons. The fused translation thus
// depends only on the program: every machine runs the same one, whatever it
// has attached. The exact translation has one source instruction per xinstr
// and none of the above; it serves instruction tracing, pair profiling and
// the instruction-budget tail, and defines the semantics the fused
// translation must match cycle for cycle (fused_test.go and simcheck's fused
// property compare the two).
package machine

import "stridepf/internal/ir"

// uKind enumerates micro operations: the ALU subset of the ISA, executed
// inside xALU groups without per-instruction dispatch overhead.
type uKind uint8

const (
	uNop uKind = iota
	uConst
	uMov
	uAdd
	uSub
	uMul
	uDiv
	uRem
	uAnd
	uOr
	uXor
	uShl
	uShr
	uAddI
	uShlI
	uShrI
	uAndI
	// uMulI/uOrI/uXorI have no ISA counterpart; the translator's constant
	// folding synthesises them from an OpConst feeding a single-use binary op.
	uMulI
	uOrI
	uXorI
	// uCmp is every compare; its imm is the opcode's truth table (cmpMasks).
	uCmp
)

// micro is one pre-resolved ALU operation within a group.
type micro struct {
	kind   uKind
	dst    int32
	s0, s1 int32
	imm    int64
}

// xkind dispatches a fused-form instruction.
type xkind uint8

const (
	// xALU executes up to groupMax micros (predicated only when nm==1).
	// When t0 >= 0 the group ends its block with the block's branch: to t0,
	// or, when t1 >= 0 too, to t0 if register s0 is nonzero and t1 if not.
	xALU xkind = iota
	// xCmpBr fuses a compare (truth table imm, see cmpMasks) with the
	// conditional branch consuming its result: the flag is still written to
	// dst (later blocks may read it), then control transfers to t0 (true) or
	// t1 (false).
	xCmpBr
	xRet
	// xLoad / xSpecLoad / xStore / xPrefetch are unfused memory operations.
	xLoad
	xSpecLoad
	xStore
	xPrefetch
	// xHook / xCall / xAlloc / xRand are the remaining singletons.
	xHook
	xCall
	xAlloc
	xRand
	// xTrace is the exact translation's per-instruction observation point
	// under Config.Trace or Config.PairProfile: it carries the budget count
	// (nsrc 1) of source instruction src, which follows it with nsrc 0, and
	// records the pair profile and the trace line before that instruction is
	// charged.
	xTrace
)

// groupMax bounds how many micros one xALU group carries.
const groupMax = 6

// xinstr is one fused-form instruction. Exactly one kind's field subset is
// meaningful. It covers the nsrc source instructions from src on, and cost
// is the sum of their fixed costs (OpCost); the step loop charges both up
// front, so no handler charges a fixed cost itself. (A traced instruction
// is the one split: its xTrace carries the count, the instruction the cost.)
type xinstr struct {
	kind    xkind
	nsrc    uint8
	nm      uint8 // live micros in mi (xALU)
	pfClass uint8
	cost    uint32
	// src is the block index of the first source instruction covered; the
	// exact translation resumes there when the instruction budget runs out
	// inside this xinstr.
	src      int32
	dst      int32
	s0, s1   int32
	pred     int32 // qualifying predicate register, or -1 (never on groups or branches)
	t0, t1   int32
	loadSlot int32
	imm      int64
	mi       [groupMax]micro
	hook     HookFunc
	callee   *code
	args     []int32
	// xb0/xb1 are the translations of branch targets t0/t1, linked once
	// every block of the function is translated, so taken branches jump
	// pointer-to-pointer without re-indexing code.xb.
	xb0, xb1 *xblock
}

// xblock is the cached translation of one basic block.
type xblock struct {
	ins []xinstr
	// bi is the block's index in code.blocks.
	bi int32
	// exact is the block's exact translation, built on first use when the
	// instruction budget runs out inside a multi-instruction xinstr.
	exact *xblock
}

// aluKind maps an ALU-class opcode to its micro kind.
func aluKind(op ir.Opcode) (uKind, bool) {
	switch op {
	case ir.OpNop:
		return uNop, true
	case ir.OpConst:
		return uConst, true
	case ir.OpMov:
		return uMov, true
	case ir.OpAdd:
		return uAdd, true
	case ir.OpSub:
		return uSub, true
	case ir.OpMul:
		return uMul, true
	case ir.OpDiv:
		return uDiv, true
	case ir.OpRem:
		return uRem, true
	case ir.OpAnd:
		return uAnd, true
	case ir.OpOr:
		return uOr, true
	case ir.OpXor:
		return uXor, true
	case ir.OpShl:
		return uShl, true
	case ir.OpShr:
		return uShr, true
	case ir.OpAddI:
		return uAddI, true
	case ir.OpShlI:
		return uShlI, true
	case ir.OpShrI:
		return uShrI, true
	case ir.OpAndI:
		return uAndI, true
	case ir.OpCmpEQ, ir.OpCmpNE, ir.OpCmpLT, ir.OpCmpLE, ir.OpCmpGT, ir.OpCmpGE:
		return uCmp, true
	}
	return 0, false
}

// cmpMasks holds each compare opcode's truth table over its operands'
// ordering: bit 0 is the result when a < b, bit 1 when a == b, bit 2 when
// a > b. Decoding stores it as the compare's immediate, so uCmp and xCmpBr
// evaluate all six compares with cmp.
var cmpMasks = map[ir.Opcode]int64{
	ir.OpCmpEQ: 0b010,
	ir.OpCmpNE: 0b101,
	ir.OpCmpLT: 0b001,
	ir.OpCmpLE: 0b011,
	ir.OpCmpGT: 0b100,
	ir.OpCmpGE: 0b110,
}

// cmp evaluates the compare with truth table mask (see cmpMasks) on a and
// b: bit b2i(a >= b) + b2i(a > b) of mask. Masking the bit index with 63
// lets the compiler drop its shift-range check and read the bit with one
// bit test.
func cmp(mask, a, b int64) bool {
	return mask&(1<<((b2i(a >= b)+b2i(a > b))&63)) != 0
}

// immALU maps a binary ALU opcode with one constant operand to its
// immediate-form micro. side 0 means the constant is the left operand
// (s0), side 1 the right (s1); non-commutative ops fold only on the side
// an existing or synthesised immediate form can express. The caller
// negates the immediate for OpSub (x - c becomes x + (-c), identical
// under two's-complement wrapping even at MinInt64).
func immALU(op ir.Opcode, side int) (uKind, bool) {
	switch op {
	case ir.OpAdd:
		return uAddI, true
	case ir.OpMul:
		return uMulI, true
	case ir.OpAnd:
		return uAndI, true
	case ir.OpOr:
		return uOrI, true
	case ir.OpXor:
		return uXorI, true
	case ir.OpSub:
		if side == 1 {
			return uAddI, true
		}
	case ir.OpShl:
		if side == 1 {
			return uShlI, true
		}
	case ir.OpShr:
		if side == 1 {
			return uShrI, true
		}
	}
	return 0, false
}

// countReads tallies the static read sites of every register across the
// function, exactly mirroring which registers each opcode reads. The
// default case counts every operand field — overcounting only disables
// folding, undercounting would elide a live write.
func countReads(c *code) []int32 {
	counts := make([]int32, c.nregs)
	bump := func(r int32) {
		if r >= 0 && int(r) < len(counts) {
			counts[r]++
		}
	}
	for _, blk := range c.blocks {
		for ii := range blk {
			d := &blk[ii]
			bump(d.pred)
			switch d.op {
			case ir.OpNop, ir.OpConst, ir.OpBr:
			case ir.OpMov, ir.OpAddI, ir.OpShlI, ir.OpShrI, ir.OpAndI,
				ir.OpLoad, ir.OpSpecLoad, ir.OpPrefetch, ir.OpAlloc,
				ir.OpRand, ir.OpCondBr, ir.OpRet:
				bump(d.s0)
			case ir.OpStore:
				bump(d.s0)
				bump(d.s1)
			case ir.OpCall, ir.OpHook:
				for _, a := range d.args {
					bump(a)
				}
			default:
				bump(d.s0)
				bump(d.s1)
				for _, a := range d.args {
					bump(a)
				}
			}
		}
	}
	return counts
}

// translateCode translates every block of c and links the branches'
// successor pointers. Translation is eager — the whole function on first
// entry — so a taken branch never has to ask whether its target is
// translated yet. Traced and pair-profiled runs use the exact translation
// throughout.
func (m *Machine) translateCode(c *code) {
	if c.regReads == nil {
		c.regReads = countReads(c)
	}
	exact := m.cfg.Trace != nil || m.pairs != nil
	c.xb = make([]*xblock, len(c.blocks))
	for bi := range c.blocks {
		c.xb[bi] = m.translateBlock(c, int32(bi), exact)
	}
	for _, xb := range c.xb {
		c.link(xb)
	}
}

// link points xb's branches at their successors' translations in c.xb.
func (c *code) link(xb *xblock) {
	for i := range xb.ins {
		x := &xb.ins[i]
		if (x.kind == xALU || x.kind == xCmpBr) && x.t0 >= 0 {
			x.xb0 = c.xb[x.t0]
			if x.t1 >= 0 {
				x.xb1 = c.xb[x.t1]
			}
		}
	}
}

// exactTwin returns the exact translation of xb's block, translating it on
// first use. Its xinstr i is source instruction i, so the step loop can
// resume it at any xinstr's src.
func (m *Machine) exactTwin(c *code, xb *xblock) *xblock {
	if xb.exact == nil {
		xb.exact = m.translateBlock(c, xb.bi, true)
		c.link(xb.exact)
	}
	return xb.exact
}

// singleton translates one decoded instruction on its own, predicate
// included. Every opcode New accepts has one.
func singleton(d *decoded, ii int) xinstr {
	x := xinstr{nsrc: 1, cost: d.cost, src: int32(ii), pfClass: d.pfClass,
		dst: d.dst, s0: d.s0, s1: d.s1, pred: d.pred, t0: d.t0, t1: d.t1,
		loadSlot: d.loadSlot, imm: d.imm, hook: d.hook, callee: d.callee, args: d.args}
	if uk, ok := aluKind(d.op); ok {
		x.kind, x.nm = xALU, 1
		x.mi[0] = micro{kind: uk, dst: d.dst, s0: d.s0, s1: d.s1, imm: d.imm}
		return x
	}
	switch d.op {
	case ir.OpLoad:
		x.kind = xLoad
	case ir.OpSpecLoad:
		x.kind = xSpecLoad
	case ir.OpStore:
		x.kind = xStore
	case ir.OpPrefetch:
		x.kind = xPrefetch
	case ir.OpAlloc:
		x.kind = xAlloc
	case ir.OpRand:
		x.kind = xRand
	case ir.OpHook:
		x.kind = xHook
	case ir.OpCall:
		x.kind = xCall
	case ir.OpBr, ir.OpCondBr:
		// A branch on its own is a group of zero micros ending its block.
		x.kind = xALU
	case ir.OpRet:
		x.kind = xRet
	}
	return x
}

// translateBlock builds the execution form of block bi of c: the fused
// translation, or with exact set the exact one. Hook pointers are copied
// from the decoded stream, which New bound once (see bindHooks).
func (m *Machine) translateBlock(c *code, bi int32, exact bool) *xblock {
	blk := c.blocks[bi]
	xb := &xblock{bi: bi}
	// Traced and pair-profiled runs observe every instruction through an
	// xTrace ahead of it.
	observe := exact && (m.cfg.Trace != nil || m.pairs != nil)

	// g is the pending micro group; its nsrc counts the source
	// instructions its micros cover (folds cover two).
	empty := xinstr{kind: xALU, pred: -1, t0: -1, t1: -1}
	g := empty
	flush := func() {
		if g.nsrc > 0 {
			xb.ins = append(xb.ins, g)
			g = empty
		}
	}
	// push appends a micro covering n source instructions from ii on.
	push := func(u micro, ii, n int, cost uint32) {
		if g.nm == groupMax {
			flush()
		}
		if g.nsrc == 0 {
			g.src = int32(ii)
		}
		g.mi[g.nm] = u
		g.nm++
		g.nsrc += uint8(n)
		g.cost += cost
	}

	for ii := 0; ii < len(blk); ii++ {
		d := &blk[ii]

		if exact || d.pred >= 0 {
			// Predicated instructions run as singletons carrying the
			// qualifying predicate: the step loop charges their slot, tests
			// the predicate, and squashes. Predication is pervasive in
			// prefetch-inserted code, so it must not cost the rest of the
			// block its fusion.
			flush()
			x := singleton(d, ii)
			if observe {
				xb.ins = append(xb.ins, xinstr{kind: xTrace, nsrc: 1, src: int32(ii), pred: -1})
				x.nsrc = 0
			}
			xb.ins = append(xb.ins, x)
			continue
		}

		// Constant folding: an OpConst whose destination's only static read
		// site in the whole function is the immediately following
		// (unpredicated) instruction folds into that instruction's immediate
		// operand, and the now-dead register write disappears. The builders'
		// fresh-temp-per-Const idiom makes this the common case. The covered
		// source count and cost still include the const, so instruction and
		// cycle accounting stay identical to the exact translation.
		if d.op == ir.OpConst && ii+1 < len(blk) && c.regReads[d.dst] == 1 && blk[ii+1].pred < 0 {
			n := &blk[ii+1]
			// Pair: const + binary ALU becomes one immediate-form micro.
			if onL, onR := n.s0 == d.dst, n.s1 == d.dst; onL != onR {
				side := 0
				if onR {
					side = 1
				}
				if mk, ok := immALU(n.op, side); ok {
					imm := d.imm
					if n.op == ir.OpSub {
						imm = -imm
					}
					surv := n.s0
					if onL {
						surv = n.s1
					}
					push(micro{kind: mk, dst: n.dst, s0: surv, imm: imm}, ii, 2, d.cost+n.cost)
					ii++
					continue
				}
			}
			// Pair: const + mov collapses to a constant write of the mov
			// target.
			if n.op == ir.OpMov && n.s0 == d.dst {
				push(micro{kind: uConst, dst: n.dst, imm: d.imm}, ii, 2, d.cost+n.cost)
				ii++
				continue
			}
		}

		if uk, ok := aluKind(d.op); ok {
			// Compare feeding the immediately following conditional branch on
			// its own result fuses into a superinstruction — by far the
			// hottest dynamic pair (see DESIGN.md).
			if n := ii + 1; uk == uCmp && n < len(blk) && blk[n].op == ir.OpCondBr && blk[n].s0 == d.dst {
				flush()
				xb.ins = append(xb.ins, xinstr{
					kind: xCmpBr, nsrc: 2, cost: d.cost + blk[n].cost, src: int32(ii), pred: -1,
					dst: d.dst, s0: d.s0, s1: d.s1, imm: d.imm, t0: blk[n].t0, t1: blk[n].t1,
				})
				ii++
				continue
			}
			push(micro{kind: uk, dst: d.dst, s0: d.s0, s1: d.s1, imm: d.imm}, ii, 1, d.cost)
			continue
		}

		if d.op == ir.OpBr || d.op == ir.OpCondBr {
			// The block's branch ends the pending group, of zero micros when
			// no ALU work precedes it: the micros and the transfer dispatch
			// as one.
			if g.nsrc == 0 {
				g.src = int32(ii)
			}
			g.nsrc++
			g.cost += d.cost
			g.s0, g.t0, g.t1 = d.s0, d.t0, d.t1
			flush()
			continue
		}
		flush()
		xb.ins = append(xb.ins, singleton(d, ii))
	}
	// A block without a terminator (rejected by the verifier): any pending
	// group still executes before the step loop reports the missing
	// terminator.
	flush()
	return xb
}
