// Package ir defines the low-level intermediate representation used by the
// stride-profiling and prefetching passes.
//
// The IR models a late, near-machine compiler representation similar to the
// one the paper's Itanium research compiler operates on:
//
//   - an unbounded file of 64-bit virtual registers per function,
//   - explicit basic blocks with branch terminators,
//   - Itanium-style qualifying predicates: every instruction may name a
//     predicate register; the instruction only takes effect when that
//     register holds a non-zero value,
//   - loads, stores and non-faulting prefetches with a base register plus a
//     compile-time constant displacement (the addressing mode the paper's
//     equivalent-load analysis relies on), and
//   - runtime hooks, which is how instrumentation invokes the profiling
//     runtime (the strideProf routine of Figures 6, 7 and 9).
//
// Instrumentation passes in package instrument and the prefetch-insertion
// pass in package prefetch are ordinary IR-to-IR transformations over this
// representation, and package machine interprets it against a simulated
// memory hierarchy.
package ir

import "fmt"

// Reg identifies a virtual register within a function. Registers hold 64-bit
// integer values; addresses are stored as integers. Predicate registers are
// ordinary registers holding 0 or 1.
type Reg int32

// NoReg marks an absent register operand (for example the predicate slot of
// an unpredicated instruction, or the destination of a store).
const NoReg Reg = -1

// Valid reports whether r names an actual register.
func (r Reg) Valid() bool { return r >= 0 }

// String returns the conventional printed form of the register, e.g. "r7".
func (r Reg) String() string {
	if !r.Valid() {
		return "_"
	}
	return fmt.Sprintf("r%d", int32(r))
}

// Opcode enumerates IR operations.
type Opcode uint8

// Opcode values. Arithmetic and comparison instructions read Src[0] and
// Src[1] and write Dst. Memory instructions address M[Src[0]+Imm].
const (
	// OpNop does nothing; used as a placeholder by passes.
	OpNop Opcode = iota
	// OpConst writes the immediate Imm to Dst.
	OpConst
	// OpMov copies Src[0] to Dst.
	OpMov
	// OpAdd writes Src[0]+Src[1] to Dst.
	OpAdd
	// OpSub writes Src[0]-Src[1] to Dst.
	OpSub
	// OpMul writes Src[0]*Src[1] to Dst.
	OpMul
	// OpDiv writes Src[0]/Src[1] to Dst (quotient; division by zero yields 0,
	// matching the saturating behaviour convenient for profile arithmetic).
	OpDiv
	// OpRem writes Src[0]%Src[1] to Dst (remainder; zero divisor yields 0).
	OpRem
	// OpAnd writes Src[0]&Src[1] to Dst.
	OpAnd
	// OpOr writes Src[0]|Src[1] to Dst.
	OpOr
	// OpXor writes Src[0]^Src[1] to Dst.
	OpXor
	// OpShl writes Src[0]<<Src[1] to Dst.
	OpShl
	// OpShr writes Src[0]>>Src[1] to Dst (arithmetic shift).
	OpShr
	// OpAddI writes Src[0]+Imm to Dst.
	OpAddI
	// OpShlI writes Src[0]<<Imm to Dst.
	OpShlI
	// OpShrI writes Src[0]>>Imm to Dst (arithmetic shift).
	OpShrI
	// OpAndI writes Src[0]&Imm to Dst.
	OpAndI
	// OpCmpEQ writes 1 to Dst if Src[0]==Src[1], else 0.
	OpCmpEQ
	// OpCmpNE writes 1 to Dst if Src[0]!=Src[1], else 0.
	OpCmpNE
	// OpCmpLT writes 1 to Dst if Src[0]<Src[1], else 0 (signed).
	OpCmpLT
	// OpCmpLE writes 1 to Dst if Src[0]<=Src[1], else 0 (signed).
	OpCmpLE
	// OpCmpGT writes 1 to Dst if Src[0]>Src[1], else 0 (signed).
	OpCmpGT
	// OpCmpGE writes 1 to Dst if Src[0]>=Src[1], else 0 (signed).
	OpCmpGE
	// OpLoad reads the 8-byte word at M[Src[0]+Imm] into Dst.
	OpLoad
	// OpSpecLoad is a speculative (non-faulting) load in the manner of
	// Itanium ld.s: identical to OpLoad in this simulator's semantics, but
	// marked so that analyses and profiling ignore it. The indirect
	// prefetching extension uses it to read a future pointer value.
	OpSpecLoad
	// OpStore writes Src[1] to the 8-byte word at M[Src[0]+Imm].
	OpStore
	// OpPrefetch issues a non-binding, non-faulting prefetch of the cache
	// line containing M[Src[0]+Imm] (the Itanium lfetch analogue).
	OpPrefetch
	// OpAlloc bump-allocates Src[0] bytes from the simulated heap and writes
	// the address of the new block to Dst; if Src[0] is negative or larger
	// than the heap has left, nothing is allocated and the result is 0.
	OpAlloc
	// OpRand writes a machine-seeded pseudo-random value in [0, Src[0]) to
	// Dst; if Src[0] is zero or negative the result is 0.
	OpRand
	// OpBr unconditionally transfers control to Targets[0]. Terminator.
	OpBr
	// OpCondBr transfers control to Targets[0] if Src[0] is non-zero, else to
	// Targets[1]. Terminator.
	OpCondBr
	// OpCall invokes the function named Callee with the values of Args; on
	// return, Dst (if valid) receives the callee's return value.
	OpCall
	// OpRet returns from the current function with the value of Src[0] (or 0
	// if Src[0] is NoReg). Terminator.
	OpRet
	// OpHook invokes the runtime hook bound under Imm (see
	// machine.Config.Hooks), passing the values of Args. Instrumentation
	// uses hooks to call the stride-profiling runtime.
	OpHook
)

var opNames = [...]string{
	OpNop: "nop", OpConst: "const", OpMov: "mov",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpRem: "rem",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr",
	OpAddI: "addi", OpShlI: "shli", OpShrI: "shri", OpAndI: "andi",
	OpCmpEQ: "cmpeq", OpCmpNE: "cmpne", OpCmpLT: "cmplt",
	OpCmpLE: "cmple", OpCmpGT: "cmpgt", OpCmpGE: "cmpge",
	OpLoad: "load", OpSpecLoad: "specload", OpStore: "store", OpPrefetch: "prefetch",
	OpAlloc: "alloc", OpRand: "rand",
	OpBr: "br", OpCondBr: "condbr", OpCall: "call", OpRet: "ret",
	OpHook: "hook",
}

// String returns the mnemonic for the opcode.
func (op Opcode) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// IsTerminator reports whether the opcode ends a basic block.
func (op Opcode) IsTerminator() bool {
	return op == OpBr || op == OpCondBr || op == OpRet
}

// IsMemory reports whether the opcode accesses simulated memory through the
// cache hierarchy (loads, stores and prefetches).
func (op Opcode) IsMemory() bool {
	return op == OpLoad || op == OpSpecLoad || op == OpStore || op == OpPrefetch
}

// HasDst reports whether the opcode writes a destination register.
func (op Opcode) HasDst() bool {
	switch op {
	case OpNop, OpStore, OpPrefetch, OpBr, OpCondBr, OpRet, OpHook:
		return false
	case OpCall:
		return true // Dst may still be NoReg for a void call
	default:
		return true
	}
}

// Instr is a single IR instruction. Instructions are referenced by pointer;
// pointer identity is how passes and profiles refer to a particular
// instruction (for example the load being stride-profiled).
type Instr struct {
	// Op is the operation.
	Op Opcode
	// Dst is the destination register, or NoReg.
	Dst Reg
	// Src holds up to two source registers; unused slots are NoReg.
	Src [2]Reg
	// Imm is the immediate operand: the constant for OpConst and the *I
	// forms, the displacement for memory operations, and the hook identifier
	// for OpHook.
	Imm int64
	// Pred is the qualifying predicate register, or NoReg for an
	// unconditional instruction. A predicated instruction takes effect only
	// when the predicate register is non-zero (Itanium-style predication;
	// used for conditional prefetching and guarded strideProf calls).
	Pred Reg
	// Targets are the successor blocks of a terminator: one for OpBr, two
	// (taken, fallthrough) for OpCondBr.
	Targets []*Block
	// Callee is the target function name for OpCall.
	Callee string
	// Args are the argument registers for OpCall and OpHook.
	Args []Reg
	// ID is a function-unique instruction identifier, stable across passes;
	// profiling data is keyed by (function, ID).
	ID int
	// Comment is an optional annotation emitted by the printer; passes use it
	// to mark inserted instrumentation and prefetches.
	Comment string
	// PFClass records which insertion policy emitted an OpPrefetch (see
	// PrefetchClass). Zero (PFNone) on every other opcode and on prefetches
	// without recorded provenance.
	PFClass PrefetchClass
}

// NewInstr returns a fresh unpredicated instruction with no operands set.
func NewInstr(op Opcode) *Instr {
	return &Instr{Op: op, Dst: NoReg, Src: [2]Reg{NoReg, NoReg}, Pred: NoReg}
}

// Defines reports whether the instruction writes register r.
func (in *Instr) Defines(r Reg) bool {
	return in.Dst.Valid() && in.Dst == r
}

// String renders the instruction in the assembly-like form used by the
// printer, without the trailing comment.
func (in *Instr) String() string {
	s := ""
	if in.Pred.Valid() {
		s = fmt.Sprintf("(%s)? ", in.Pred)
	}
	switch in.Op {
	case OpNop:
		return s + "nop"
	case OpConst:
		return fmt.Sprintf("%s%s = const %d", s, in.Dst, in.Imm)
	case OpMov:
		return fmt.Sprintf("%s%s = mov %s", s, in.Dst, in.Src[0])
	case OpAddI, OpShlI, OpShrI, OpAndI:
		return fmt.Sprintf("%s%s = %s %s, %d", s, in.Dst, in.Op, in.Src[0], in.Imm)
	case OpLoad:
		return fmt.Sprintf("%s%s = load [%s%+d]", s, in.Dst, in.Src[0], in.Imm)
	case OpSpecLoad:
		return fmt.Sprintf("%s%s = specload [%s%+d]", s, in.Dst, in.Src[0], in.Imm)
	case OpStore:
		return fmt.Sprintf("%sstore [%s%+d] = %s", s, in.Src[0], in.Imm, in.Src[1])
	case OpPrefetch:
		return fmt.Sprintf("%sprefetch [%s%+d]", s, in.Src[0], in.Imm)
	case OpAlloc:
		return fmt.Sprintf("%s%s = alloc %s", s, in.Dst, in.Src[0])
	case OpRand:
		return fmt.Sprintf("%s%s = rand %s", s, in.Dst, in.Src[0])
	case OpBr:
		return fmt.Sprintf("%sbr %s", s, blockName(in.Targets, 0))
	case OpCondBr:
		return fmt.Sprintf("%scondbr %s, %s, %s", s, in.Src[0],
			blockName(in.Targets, 0), blockName(in.Targets, 1))
	case OpCall:
		if in.Dst.Valid() {
			return fmt.Sprintf("%s%s = call %s%v", s, in.Dst, in.Callee, in.Args)
		}
		return fmt.Sprintf("%scall %s%v", s, in.Callee, in.Args)
	case OpRet:
		if in.Src[0].Valid() {
			return fmt.Sprintf("%sret %s", s, in.Src[0])
		}
		return s + "ret"
	case OpHook:
		return fmt.Sprintf("%shook %d%v", s, in.Imm, in.Args)
	default:
		return fmt.Sprintf("%s%s = %s %s, %s", s, in.Dst, in.Op, in.Src[0], in.Src[1])
	}
}

func blockName(targets []*Block, i int) string {
	if i >= len(targets) || targets[i] == nil {
		return "?"
	}
	return targets[i].Name
}

// Block is a basic block: a straight-line instruction sequence ending in a
// terminator. Successor edges are derived from the terminator's Targets; the
// Preds slice is maintained by the Function edge-rebuilding pass.
type Block struct {
	// Index is the block's position in Function.Blocks, maintained by
	// Function.Renumber.
	Index int
	// Name is a human-readable label, unique within the function.
	Name string
	// Instrs holds the block's instructions; the last one is the terminator.
	Instrs []*Instr
	// Preds lists predecessor blocks (recomputed by Function.RebuildEdges).
	Preds []*Block
}

// Terminator returns the block's final instruction, or nil if the block is
// empty or does not end in a terminator.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	t := b.Instrs[len(b.Instrs)-1]
	if !t.Op.IsTerminator() {
		return nil
	}
	return t
}

// Succs returns the block's successor blocks, derived from the terminator.
// The returned slice aliases the terminator's Targets; callers must not
// modify it.
func (b *Block) Succs() []*Block {
	t := b.Terminator()
	if t == nil {
		return nil
	}
	return t.Targets
}

// InsertBefore inserts instruction in immediately before the instruction at
// position i (so the new instruction occupies position i).
func (b *Block) InsertBefore(i int, in *Instr) {
	b.Instrs = append(b.Instrs, nil)
	copy(b.Instrs[i+1:], b.Instrs[i:])
	b.Instrs[i] = in
}

// IndexOf returns the position of in within the block, or -1 if absent.
func (b *Block) IndexOf(in *Instr) int {
	for i, x := range b.Instrs {
		if x == in {
			return i
		}
	}
	return -1
}

// Function is a single IR function: an entry block, a register file size and
// the set of parameter registers.
type Function struct {
	// Name is the function's program-unique name.
	Name string
	// Blocks lists the function's basic blocks; Blocks[0] is the entry.
	Blocks []*Block
	// Params are the registers that receive the call arguments, in order.
	Params []Reg
	// NumRegs is the number of virtual registers in use; registers are
	// numbered 0..NumRegs-1. NewReg extends it.
	NumRegs int

	nextInstrID int
	nextBlockID int
}

// NewFunction returns an empty function with the given name and a single
// entry block.
func NewFunction(name string) *Function {
	f := &Function{Name: name}
	f.NewBlock("entry")
	return f
}

// NewReg allocates a fresh virtual register.
func (f *Function) NewReg() Reg {
	r := Reg(f.NumRegs)
	f.NumRegs++
	return r
}

// NewParam allocates a fresh register and appends it to the parameter list.
func (f *Function) NewParam() Reg {
	r := f.NewReg()
	f.Params = append(f.Params, r)
	return r
}

// NewBlock appends a new empty block with a name derived from hint.
func (f *Function) NewBlock(hint string) *Block {
	if hint == "" {
		hint = "b"
	}
	b := &Block{Name: fmt.Sprintf("%s%d", hint, f.nextBlockID), Index: len(f.Blocks)}
	f.nextBlockID++
	f.Blocks = append(f.Blocks, b)
	return b
}

// NextInstrID returns a fresh function-unique instruction ID.
func (f *Function) NextInstrID() int {
	id := f.nextInstrID
	f.nextInstrID++
	return id
}

// Entry returns the function's entry block.
func (f *Function) Entry() *Block { return f.Blocks[0] }

// Renumber re-assigns Block.Index to match position in Blocks.
func (f *Function) Renumber() {
	for i, b := range f.Blocks {
		b.Index = i
	}
}

// RebuildEdges recomputes every block's predecessor list from the
// terminators, and renumbers blocks. Passes that add blocks or retarget
// branches call this before running CFG analyses.
func (f *Function) RebuildEdges() {
	f.Renumber()
	for _, b := range f.Blocks {
		b.Preds = b.Preds[:0]
	}
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			s.Preds = append(s.Preds, b)
		}
	}
}

// SplitEdge inserts and returns a new block on the edge from -> to. The new
// block ends in an unconditional branch to to. The caller is expected to add
// instructions to the new block and then call RebuildEdges. SplitEdge
// panics if no edge from -> to exists.
func (f *Function) SplitEdge(from, to *Block) *Block {
	t := from.Terminator()
	if t == nil {
		panic(fmt.Sprintf("ir: SplitEdge: block %s has no terminator", from.Name))
	}
	mid := f.NewBlock(from.Name + "_" + to.Name + "_")
	br := NewInstr(OpBr)
	br.Targets = []*Block{to}
	br.ID = f.NextInstrID()
	mid.Instrs = append(mid.Instrs, br)

	replaced := false
	for i, tgt := range t.Targets {
		if tgt == to {
			t.Targets[i] = mid
			replaced = true
			// Replace only the first matching target: a CondBr with both
			// targets equal carries two distinct CFG edges and each may be
			// split independently.
			break
		}
	}
	if !replaced {
		panic(fmt.Sprintf("ir: SplitEdge: no edge %s -> %s", from.Name, to.Name))
	}
	return mid
}

// Instrs calls fn for every instruction in the function, in block order.
func (f *Function) Instrs(fn func(b *Block, i int, in *Instr)) {
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			fn(b, i, in)
		}
	}
}

// FindInstr returns the block and index of the instruction with the given
// ID, or (nil, -1) if absent.
func (f *Function) FindInstr(id int) (*Block, int) {
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			if in.ID == id {
				return b, i
			}
		}
	}
	return nil, -1
}

// Program is a collection of functions plus the name of the entry function.
type Program struct {
	// Funcs maps function name to function.
	Funcs map[string]*Function
	// Main names the entry function executed by the machine.
	Main string
}

// NewProgram returns an empty program whose entry point is main.
func NewProgram() *Program {
	return &Program{Funcs: make(map[string]*Function), Main: "main"}
}

// Add registers f in the program, replacing any previous function of the
// same name.
func (p *Program) Add(f *Function) { p.Funcs[f.Name] = f }

// Func returns the function with the given name, or nil.
func (p *Program) Func(name string) *Function { return p.Funcs[name] }
