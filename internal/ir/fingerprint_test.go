package ir

import (
	"reflect"
	"testing"
)

// fingerprintFuncs builds the functions of a small program whose
// instructions set every field Fingerprint hashes at least once.
func fingerprintFuncs() []*Function {
	b := NewBuilder("main")
	n := b.Const(4)
	a := b.Alloc(b.Const(64))
	pf := b.Prefetch(a.Dst, 8)
	pf.PFClass = PFSSST
	pf.Comment = PFSSST.String()
	guard := b.CmpLT(n, b.Const(9))
	pf.Pred = guard
	b.Hook(7, n, a.Dst)
	call := b.Call("loop", n, a.Dst)
	b.Ret(call.Dst)
	main := b.Finish()

	l := NewBuilder("loop")
	cnt, p := l.Param(), l.Param()
	body, exit, head := l.Block("body"), l.Block("exit"), l.Block("head")
	i, sum := l.Const(0), l.Const(0)
	l.Br(head)
	l.At(head)
	l.CondBr(l.CmpLT(i, cnt), body, exit)
	l.At(body)
	v := l.Load(p, 0)
	l.Mov(sum, l.Add(sum, v.Dst))
	l.AddITo(p, p, 8)
	l.AddITo(i, i, 1)
	l.Br(head)
	l.At(exit)
	l.Ret(sum)

	aux := NewBuilder("aux")
	aux.Ret(aux.Const(1))
	return []*Function{main, l.Finish(), aux.Finish()}
}

func fingerprintProgram() *Program {
	p := NewProgram()
	for _, f := range fingerprintFuncs() {
		p.Add(f)
	}
	return p
}

// firstOp returns the first instruction of fname with opcode op.
func firstOp(t *testing.T, p *Program, fname string, op Opcode) *Instr {
	t.Helper()
	var found *Instr
	p.Func(fname).Instrs(func(_ *Block, _ int, in *Instr) {
		if found == nil && in.Op == op {
			found = in
		}
	})
	if found == nil {
		t.Fatalf("%s has no %s", fname, op)
	}
	return found
}

// fingerprintMutations changes one hashed field each, keyed "Type.Field".
// Every exported field of Program, Function, Block and Instr must appear
// here or in derivedFields (TestFingerprintFieldGuard).
var fingerprintMutations = map[string]func(*testing.T, *Program){
	"Program.Main": func(_ *testing.T, p *Program) { p.Main = "aux" },
	"Program.Funcs": func(_ *testing.T, p *Program) {
		f := NewBuilder("extra")
		f.Ret(NoReg)
		p.Add(f.Finish())
	},
	"Function.Name": func(_ *testing.T, p *Program) { p.Func("aux").Name = "aux2" },
	"Function.Params": func(_ *testing.T, p *Program) {
		f := p.Func("loop")
		f.Params[0], f.Params[1] = f.Params[1], f.Params[0]
	},
	"Function.NumRegs": func(_ *testing.T, p *Program) { p.Func("loop").NumRegs++ },
	"Function.Blocks": func(_ *testing.T, p *Program) {
		bs := p.Func("loop").Blocks
		bs[1], bs[2] = bs[2], bs[1]
	},
	"Block.Name":   func(_ *testing.T, p *Program) { p.Func("loop").Blocks[2].Name = "done" },
	"Block.Instrs": func(_ *testing.T, p *Program) { p.Func("loop").Blocks[1].InsertBefore(0, NewInstr(OpNop)) },
	"Instr.Op":     func(t *testing.T, p *Program) { firstOp(t, p, "loop", OpAdd).Op = OpSub },
	"Instr.Dst":    func(t *testing.T, p *Program) { firstOp(t, p, "loop", OpLoad).Dst++ },
	"Instr.Src":    func(t *testing.T, p *Program) { firstOp(t, p, "loop", OpAdd).Src[1]-- },
	"Instr.Imm":    func(t *testing.T, p *Program) { firstOp(t, p, "loop", OpLoad).Imm = 8 },
	"Instr.Pred":   func(t *testing.T, p *Program) { firstOp(t, p, "main", OpPrefetch).Pred = NoReg },
	"Instr.Targets": func(t *testing.T, p *Program) {
		br := firstOp(t, p, "loop", OpCondBr)
		br.Targets[0], br.Targets[1] = br.Targets[1], br.Targets[0]
	},
	"Instr.Callee":  func(t *testing.T, p *Program) { firstOp(t, p, "main", OpCall).Callee = "aux" },
	"Instr.Args":    func(t *testing.T, p *Program) { a := firstOp(t, p, "main", OpHook).Args; a[0], a[1] = a[1], a[0] },
	"Instr.ID":      func(t *testing.T, p *Program) { firstOp(t, p, "loop", OpLoad).ID += 100 },
	"Instr.Comment": func(t *testing.T, p *Program) { firstOp(t, p, "main", OpPrefetch).Comment = "" },
	"Instr.PFClass": func(t *testing.T, p *Program) { firstOp(t, p, "main", OpPrefetch).PFClass = PFPMST },
}

// derivedFields are exported fields Fingerprint deliberately skips:
// Function.Renumber and Function.RebuildEdges recompute them from the
// block order and the terminators.
var derivedFields = map[string]func(*testing.T, *Program){
	"Block.Index": func(_ *testing.T, p *Program) { p.Func("loop").Blocks[1].Index = 42 },
	"Block.Preds": func(_ *testing.T, p *Program) { p.Func("loop").Blocks[1].Preds = nil },
}

func TestFingerprintCoversEveryField(t *testing.T) {
	base := Fingerprint(fingerprintProgram())
	for name, mutate := range fingerprintMutations {
		p := fingerprintProgram()
		mutate(t, p)
		if Fingerprint(p) == base {
			t.Errorf("changing %s left the fingerprint unchanged", name)
		}
	}
	for name, mutate := range derivedFields {
		p := fingerprintProgram()
		mutate(t, p)
		if Fingerprint(p) != base {
			t.Errorf("changing derived field %s changed the fingerprint", name)
		}
	}
}

func TestFingerprintIgnoresFunctionOrder(t *testing.T) {
	want := Fingerprint(fingerprintProgram())
	fs := fingerprintFuncs()
	rev := NewProgram()
	for i := len(fs) - 1; i >= 0; i-- {
		rev.Add(fs[i])
	}
	for i := 0; i < 8; i++ {
		if got := Fingerprint(rev); got != want {
			t.Fatalf("reverse insertion order: fingerprint %x, want %x", got, want)
		}
	}
	if got := Fingerprint(CloneProgram(rev)); got != want {
		t.Fatalf("clone: fingerprint %x, want %x", got, want)
	}
}

// TestFingerprintFieldGuard fails when an IR type gains an exported field
// that Fingerprint neither hashes (a case in fingerprintMutations) nor
// skips as derived, so a new field cannot silently alias two programs in
// a simulation cache.
func TestFingerprintFieldGuard(t *testing.T) {
	types := []reflect.Type{
		reflect.TypeOf(Program{}), reflect.TypeOf(Function{}),
		reflect.TypeOf(Block{}), reflect.TypeOf(Instr{}),
	}
	known := map[string]bool{}
	for _, typ := range types {
		for i := 0; i < typ.NumField(); i++ {
			fld := typ.Field(i)
			if !fld.IsExported() {
				continue
			}
			name := typ.Name() + "." + fld.Name
			known[name] = true
			if fingerprintMutations[name] == nil && derivedFields[name] == nil {
				t.Errorf("%s is neither hashed by Fingerprint nor listed as derived", name)
			}
		}
	}
	for _, table := range []map[string]func(*testing.T, *Program){fingerprintMutations, derivedFields} {
		for name := range table {
			if !known[name] {
				t.Errorf("%s is listed but is not an exported IR field", name)
			}
		}
	}
}
