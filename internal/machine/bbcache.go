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
//     group plus its folded constants and trailing branch);
//   - the dominant dynamic pairs get dedicated superinstruction handlers
//     (compare+branch, load+store, load+hook — see DESIGN.md for the
//     measured pair distribution this set was chosen from);
//   - remaining straight-line ALU runs execute as micro groups whose
//     members skip everything but the operation itself, with single-use
//     constants folded into their consumers' immediate operands.
//
// The fusion rules only merge instruction sequences with no observation
// point (hierarchy access, hook call, nested call) between the merged
// members, so charging their fixed costs in one lump is invisible. The exact
// translation has one source instruction per xinstr and none of the above;
// it serves instruction tracing, pair profiling and the instruction-budget
// tail, and defines the semantics the fused translation must match cycle for
// cycle (fused_test.go and simcheck's fused property compare the two).
package machine

import "stridepf/internal/ir"

// uKind enumerates micro operations: the ALU subset of the ISA, executed
// inside xALU/xALUBr groups without per-instruction dispatch overhead.
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
	uCmpEQ
	uCmpNE
	uCmpLT
	uCmpLE
	uCmpGT
	uCmpGE
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
	xALU xkind = iota
	// xALUBr is xALU with a folded trailing unconditional branch to t0.
	xALUBr
	// xEqBr..xGeBr fuse a compare with the conditional branch consuming its
	// result: the flag is still written to dst (later blocks may read it),
	// then control transfers to t0 (true) or t1 (false).
	xEqBr
	xNeBr
	xLtBr
	xLeBr
	xGtBr
	xGeBr
	// xEqBrI..xGeBrI are the immediate forms: a dead single-use OpConst
	// folded into the compare, so the whole const+compare+branch triple is
	// one dispatch comparing s0 against imm.
	xEqBrI
	xNeBrI
	xLtBrI
	xLeBrI
	xGtBrI
	xGeBrI
	// xBr / xCondBr / xRet are the unfused terminators.
	xBr
	xCondBr
	xRet
	// xLoad / xSpecLoad / xStore / xPrefetch are unfused memory operations.
	xLoad
	xSpecLoad
	xStore
	xPrefetch
	// xLoadStore presents a load (dst, s0, imm, loadSlot) and the following
	// store (s2, s3, imm2) to the cache hierarchy as one batch. The fixed
	// costs ride on the batch refs, so cost is 0 here.
	xLoadStore
	// xLoadHook is a load immediately feeding a profiling hook; the handler
	// charges the two occupancy cycles around the access itself.
	xLoadHook
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
// meaningful; nsrc source instructions and cost fixed cycles are charged up
// front by the step loop.
type xinstr struct {
	kind    xkind
	nsrc    uint8
	nm      uint8 // live micros in mi (xALU/xALUBr)
	pfClass uint8
	cost    uint32
	// src is the block index of the first source instruction covered; the
	// exact translation resumes there when the instruction budget runs out
	// inside this xinstr.
	src      int32
	dst      int32
	s0, s1   int32
	s2, s3   int32 // fused store operands (xLoadStore)
	pred     int32 // qualifying predicate register, or -1 (singletons only)
	t0, t1   int32
	loadSlot int32
	imm      int64
	imm2     int64 // fused store displacement (xLoadStore)
	mi       [groupMax]micro
	hook     HookFunc
	callee   *code
	args     []int32
	// xb0/xb1 are the terminator's successor translations, linked once every
	// block of the function is translated, so taken branches jump
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
	case ir.OpCmpEQ:
		return uCmpEQ, true
	case ir.OpCmpNE:
		return uCmpNE, true
	case ir.OpCmpLT:
		return uCmpLT, true
	case ir.OpCmpLE:
		return uCmpLE, true
	case ir.OpCmpGT:
		return uCmpGT, true
	case ir.OpCmpGE:
		return uCmpGE, true
	}
	return 0, false
}

// cmpBrKind maps a compare micro kind to its fused compare+branch handler.
func cmpBrKind(u uKind) (xkind, bool) {
	switch u {
	case uCmpEQ:
		return xEqBr, true
	case uCmpNE:
		return xNeBr, true
	case uCmpLT:
		return xLtBr, true
	case uCmpLE:
		return xLeBr, true
	case uCmpGT:
		return xGtBr, true
	case uCmpGE:
		return xGeBr, true
	}
	return 0, false
}

// cmpBrIKind maps a compare opcode to its immediate compare+branch handler.
// constLeft flips the relation so the immediate always sits on the right:
// imm < x is x > imm, and so on (EQ/NE are symmetric).
func cmpBrIKind(op ir.Opcode, constLeft bool) (xkind, bool) {
	switch op {
	case ir.OpCmpEQ:
		return xEqBrI, true
	case ir.OpCmpNE:
		return xNeBrI, true
	case ir.OpCmpLT:
		if constLeft {
			return xGtBrI, true
		}
		return xLtBrI, true
	case ir.OpCmpLE:
		if constLeft {
			return xGeBrI, true
		}
		return xLeBrI, true
	case ir.OpCmpGT:
		if constLeft {
			return xLtBrI, true
		}
		return xGtBrI, true
	case ir.OpCmpGE:
		if constLeft {
			return xLeBrI, true
		}
		return xGeBrI, true
	}
	return 0, false
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

// translateCode translates every block of c and links the terminators'
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

// link points xb's terminator at its successors' translations in c.xb.
func (c *code) link(xb *xblock) {
	for i := range xb.ins {
		x := &xb.ins[i]
		switch x.kind {
		case xALUBr, xBr:
			x.xb0 = c.xb[x.t0]
		case xEqBr, xNeBr, xLtBr, xLeBr, xGtBr, xGeBr,
			xEqBrI, xNeBrI, xLtBrI, xLeBrI, xGtBrI, xGeBrI, xCondBr:
			x.xb0, x.xb1 = c.xb[x.t0], c.xb[x.t1]
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
	case ir.OpBr:
		x.kind = xBr
	case ir.OpCondBr:
		x.kind = xCondBr
	case ir.OpRet:
		x.kind = xRet
	}
	return x
}

// translateBlock builds the execution form of block bi of c: the fused
// translation, or with exact set the exact one. Hook pointers are copied
// from the decoded stream, so the translation is only valid for the hook
// bindings resolveHooks installed before the current Run — resolveHooks
// drops code.xb whenever it rebinds.
func (m *Machine) translateBlock(c *code, bi int32, exact bool) *xblock {
	blk := c.blocks[bi]
	xb := &xblock{bi: bi}
	// Traced and pair-profiled runs observe every instruction through an
	// xTrace ahead of it.
	observe := exact && (m.cfg.Trace != nil || m.pairs != nil)
	// load+store batching presents the store before a prefetcher or lane
	// could observe the load, so it forms only when neither is attached.
	batch := m.pf == nil && m.lanes == nil

	var g [groupMax]micro
	ng := 0     // micros pending in g
	gsrc := 0   // source instructions those micros cover (folds cover two)
	gstart := 0 // block index of the group's first source instruction
	gcost := uint32(0)
	flush := func() {
		if ng == 0 {
			return
		}
		x := xinstr{kind: xALU, nsrc: uint8(gsrc), nm: uint8(ng), cost: gcost, src: int32(gstart), pred: -1}
		copy(x.mi[:], g[:ng])
		xb.ins = append(xb.ins, x)
		ng, gsrc, gcost = 0, 0, 0
	}
	// push appends a micro covering n source instructions from ii on.
	push := func(u micro, ii, n int, cost uint32) {
		if ng == groupMax {
			flush()
		}
		if ng == 0 {
			gstart = ii
		}
		g[ng] = u
		ng++
		gsrc += n
		gcost += cost
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
		if d.op == ir.OpConst && ii+1 < len(blk) && c.regReads[d.dst] == 1 {
			n := &blk[ii+1]
			if n.pred < 0 {
				// Triple: const + compare + branch-on-compare becomes one
				// immediate compare+branch dispatch.
				if _, isCmp := cmpBrIKind(n.op, false); isCmp && ii+2 < len(blk) {
					onL, onR := n.s0 == d.dst, n.s1 == d.dst
					if onL != onR {
						if t := &blk[ii+2]; t.op == ir.OpCondBr && t.pred < 0 && t.s0 == n.dst {
							xk, _ := cmpBrIKind(n.op, onL)
							surv := n.s0
							if onL {
								surv = n.s1
							}
							flush()
							xb.ins = append(xb.ins, xinstr{
								kind: xk, nsrc: 3, cost: d.cost + n.cost + t.cost, src: int32(ii),
								pred: -1, dst: n.dst, s0: surv, imm: d.imm,
								t0: t.t0, t1: t.t1,
							})
							ii += 2
							continue
						}
					}
				}
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
		}

		if uk, ok := aluKind(d.op); ok {
			// Compare feeding the immediately following conditional branch on
			// its own result fuses into a dedicated handler — by far the
			// hottest dynamic pair (see DESIGN.md).
			if xk, isCmp := cmpBrKind(uk); isCmp && ii+1 < len(blk) {
				n := &blk[ii+1]
				if n.op == ir.OpCondBr && n.pred < 0 && n.s0 == d.dst {
					flush()
					xb.ins = append(xb.ins, xinstr{
						kind: xk, nsrc: 2, cost: d.cost + n.cost, src: int32(ii), pred: -1,
						dst: d.dst, s0: d.s0, s1: d.s1, t0: n.t0, t1: n.t1,
					})
					ii++
					continue
				}
			}
			push(micro{kind: uk, dst: d.dst, s0: d.s0, s1: d.s1, imm: d.imm}, ii, 1, d.cost)
			continue
		}

		switch {
		case d.op == ir.OpLoad && ii+1 < len(blk) && blk[ii+1].pred < 0:
			n := &blk[ii+1]
			// load+store fuses only when the store reads neither its address
			// nor its value from the load's destination; then the store
			// operands are identical before and after the load retires and
			// the two refs can batch.
			if batch && n.op == ir.OpStore && n.s0 != d.dst && n.s1 != d.dst {
				flush()
				xb.ins = append(xb.ins, xinstr{
					kind: xLoadStore, nsrc: 2, cost: 0, src: int32(ii), pred: -1,
					dst: d.dst, s0: d.s0, imm: d.imm, loadSlot: d.loadSlot,
					s2: n.s0, s3: n.s1, imm2: n.imm,
				})
				ii++
				continue
			}
			// load+hook is the instrumented-code signature: the profiled
			// load immediately handing its address/value to strideProf.
			if n.op == ir.OpHook {
				flush()
				xb.ins = append(xb.ins, xinstr{
					kind: xLoadHook, nsrc: 2, cost: 0, src: int32(ii), pred: -1,
					dst: d.dst, s0: d.s0, imm: d.imm, loadSlot: d.loadSlot,
					hook: n.hook, args: n.args,
				})
				ii++
				continue
			}
		case d.op == ir.OpBr && ng > 0:
			// Fold the branch into the pending ALU group: the group's last
			// micro and the transfer dispatch as one.
			x := xinstr{kind: xALUBr, nsrc: uint8(gsrc) + 1, nm: uint8(ng),
				cost: gcost + d.cost, src: int32(gstart), pred: -1, t0: d.t0}
			copy(x.mi[:], g[:ng])
			xb.ins = append(xb.ins, x)
			ng, gsrc, gcost = 0, 0, 0
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
