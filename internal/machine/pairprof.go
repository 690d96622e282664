package machine

import (
	"sort"

	"stridepf/internal/ir"
)

// pairOps bounds the opcode space the pair profile indexes; the ISA has ~34
// opcodes, so 64 leaves headroom without wasting much table space.
const pairOps = 64

// PairCount is one entry of a pair profile: the dynamic count of Next
// executing immediately after Prev within a basic block.
type PairCount struct {
	Prev, Next ir.Opcode
	Count      uint64
}

// PairProfile records the dynamic frequency of adjacent opcode pairs
// executed within basic blocks. It is the measurement pass behind the fused
// translation's superinstruction selection: run the workloads once with
// WithPairProfile (which executes the exact translation), rank the pairs,
// and the handlers in bbcache.go should cover the head of that ranking
// (cmd/interpbench -pairs automates the sweep; DESIGN.md records the
// measured distribution the current fusion set was chosen from).
//
// Pairs are intra-block only — a block's first instruction opens a fresh
// chain — because superinstructions cannot fuse across a control transfer.
// A profile may be shared across machines sequentially but is not safe for
// concurrent recording.
type PairProfile struct {
	counts [pairOps * pairOps]uint64
	total  uint64
}

// NewPairProfile returns an empty profile.
func NewPairProfile() *PairProfile { return &PairProfile{} }

// record notes that op executed immediately after prev (-1 at block entry,
// which only counts the instruction, not a pair).
func (p *PairProfile) record(prev int32, op ir.Opcode) {
	p.total++
	if prev < 0 {
		return
	}
	p.counts[(uint32(prev)&(pairOps-1))*pairOps+(uint32(op)&(pairOps-1))]++
}

// Total returns the number of instructions profiled (pair or not).
func (p *PairProfile) Total() uint64 { return p.total }

// Pairs returns the number of adjacent pairs recorded.
func (p *PairProfile) Pairs() uint64 {
	var n uint64
	for _, c := range p.counts {
		n += c
	}
	return n
}

// Top returns the n most frequent pairs, most frequent first. Ties break on
// opcode order so the ranking is deterministic.
func (p *PairProfile) Top(n int) []PairCount {
	out := make([]PairCount, 0, 64)
	for i, c := range p.counts {
		if c == 0 {
			continue
		}
		out = append(out, PairCount{
			Prev:  ir.Opcode(i / pairOps),
			Next:  ir.Opcode(i % pairOps),
			Count: c,
		})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Count != out[b].Count {
			return out[a].Count > out[b].Count
		}
		if out[a].Prev != out[b].Prev {
			return out[a].Prev < out[b].Prev
		}
		return out[a].Next < out[b].Next
	})
	if n >= 0 && n < len(out) {
		out = out[:n]
	}
	return out
}
