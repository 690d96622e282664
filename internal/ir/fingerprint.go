package ir

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
)

// Fingerprint returns a SHA-256 digest of every field execution reads from
// p: the entry name, then each function in name order with its parameters,
// register count and ordered blocks, and for every instruction its Op, Dst,
// Src, Imm, Pred, target block names, Callee, Args, ID, Comment and
// PFClass. Two programs with equal fingerprints execute identically on the
// same machine configuration and input, so the digest can key a cache of
// simulation results.
//
// The printed listing cannot serve as that key: it omits Instr.ID, from
// which the machine derives load PCs and per-load counts. Block.Index and
// Block.Preds are not hashed because they are derived from the block order
// and the terminators; neither is the order functions were added in.
func Fingerprint(p *Program) [32]byte {
	names := make([]string, 0, len(p.Funcs))
	for name := range p.Funcs {
		names = append(names, name)
	}
	sort.Strings(names)
	var e encoding
	e.str(p.Main)
	e.int(int64(len(names)))
	for _, name := range names {
		f := p.Funcs[name]
		e.str(f.Name)
		e.int(int64(len(f.Params)))
		for _, r := range f.Params {
			e.int(int64(r))
		}
		e.int(int64(f.NumRegs))
		e.int(int64(len(f.Blocks)))
		for _, b := range f.Blocks {
			e.str(b.Name)
			e.int(int64(len(b.Instrs)))
			for _, in := range b.Instrs {
				e.instr(in)
			}
		}
	}
	return sha256.Sum256(e)
}

// encoding is the byte string Fingerprint hashes: varint integers, with
// strings and lists length-prefixed so that it is unambiguous.
type encoding []byte

func (e *encoding) instr(in *Instr) {
	*e = append(*e, byte(in.Op), byte(in.PFClass))
	e.int(int64(in.Dst))
	e.int(int64(in.Src[0]))
	e.int(int64(in.Src[1]))
	e.int(in.Imm)
	e.int(int64(in.Pred))
	e.int(int64(len(in.Targets)))
	for _, t := range in.Targets {
		if t == nil {
			e.int(-1)
			continue
		}
		e.str(t.Name)
	}
	e.str(in.Callee)
	e.int(int64(len(in.Args)))
	for _, r := range in.Args {
		e.int(int64(r))
	}
	e.int(int64(in.ID))
	e.str(in.Comment)
}

func (e *encoding) int(v int64) { *e = binary.AppendVarint(*e, v) }

func (e *encoding) str(s string) {
	e.int(int64(len(s)))
	*e = append(*e, s...)
}
