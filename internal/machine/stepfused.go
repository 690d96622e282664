package machine

import (
	"fmt"

	"stridepf/internal/obs"
)

// stepFused is the machine's step loop: the function is translated on
// first entry (bbcache.go) and then executes as pointer-linked blocks, with
// the per-instruction overheads — budget check, cost charge and the one
// qualifying-predicate test — paid once per xinstr, before the dispatch
// switch. xALU is the one handler for ALU work: it runs its group's micros
// and then, when the group ends its block, takes the block's branch;
// compare+branch pairs run as the xCmpBr superinstruction, and every
// compare evaluates its truth table with cmp. Observers attach inside the
// memory handlers: the hardware prefetcher's Observe after each demand
// load, the record of the lane fan-out beside every hierarchy access (see
// replay), and the obs collector and shadow models inside the hierarchy and
// memory themselves; lanes' hooks run inside the bound hook itself (see
// laneHook).
// Traced and pair-profiled runs execute the exact translation, which the
// fused one must match bit for bit — cycles, statistics, registers, memory,
// per-load counts, error identity — as the tests in fused_test.go and
// simcheck's fused property enforce.
//
// The instruction budget is checked per xinstr. When an xinstr covering
// several source instructions would cross it, the loop rewinds that xinstr
// and resumes the block's exact translation at the xinstr's first source
// instruction, so ErrMaxSteps lands on the exact instruction.
//
// The instruction and cycle counters accumulate in locals and are written
// back to the machine only where something else could read or change them:
// before a hook runs, before a nested call, and on every return path. The
// cache hierarchy, flat memory, heap, RNG, prefetchers and lanes never read
// them, so plain memory traffic needs no synchronisation.
func (m *Machine) stepFused(c *code, regs []int64, depth int) (int64, error) {
	if c.xb == nil {
		m.translateCode(c)
	}
	xb := c.xb[0]
	instrs := m.stats.Instrs
	cycles := m.cycles
	maxSteps := m.cfg.MaxSteps
	// resume is the xinstr the next block entry starts at: 0, except after
	// a budget rewind into an exact translation.
	resume := 0
blocks:
	for {
		// Interrupt delivery at block granularity: poll whenever the 64Ki
		// instruction epoch has advanced since the last poll, well inside the
		// "few tens of thousands of instructions" promptness contract.
		if m.intr != nil {
			if epoch := instrs >> 16; epoch != m.pollMark {
				m.pollMark = epoch
				select {
				case <-m.intr:
					m.stats.Instrs, m.cycles = instrs, cycles
					return 0, ErrInterrupted
				default:
				}
			}
		}

		ins := xb.ins
		if resume != 0 {
			ins, resume = ins[resume:], 0
		}
		for i := 0; i < len(ins); i++ {
			x := &ins[i]
			instrs += uint64(x.nsrc)
			if instrs > maxSteps {
				if x.nsrc == 1 {
					m.stats.Instrs, m.cycles = instrs, cycles
					return 0, ErrMaxSteps
				}
				instrs -= uint64(x.nsrc)
				xb, resume = m.exactTwin(c, xb), int(x.src)
				continue blocks
			}
			cycles += uint64(x.cost)
			if x.pred >= 0 && regs[x.pred] == 0 {
				continue
			}

			switch x.kind {
			case xALU:
				for k := uint8(0); k < x.nm; k++ {
					u := &x.mi[k]
					switch u.kind {
					case uNop:
					case uConst:
						regs[u.dst] = u.imm
					case uMov:
						regs[u.dst] = regs[u.s0]
					case uAdd:
						regs[u.dst] = regs[u.s0] + regs[u.s1]
					case uSub:
						regs[u.dst] = regs[u.s0] - regs[u.s1]
					case uMul:
						regs[u.dst] = regs[u.s0] * regs[u.s1]
					case uDiv:
						if regs[u.s1] == 0 {
							regs[u.dst] = 0
						} else {
							regs[u.dst] = regs[u.s0] / regs[u.s1]
						}
					case uRem:
						if regs[u.s1] == 0 {
							regs[u.dst] = 0
						} else {
							regs[u.dst] = regs[u.s0] % regs[u.s1]
						}
					case uAnd:
						regs[u.dst] = regs[u.s0] & regs[u.s1]
					case uOr:
						regs[u.dst] = regs[u.s0] | regs[u.s1]
					case uXor:
						regs[u.dst] = regs[u.s0] ^ regs[u.s1]
					case uShl:
						regs[u.dst] = regs[u.s0] << (uint64(regs[u.s1]) & 63)
					case uShr:
						regs[u.dst] = regs[u.s0] >> (uint64(regs[u.s1]) & 63)
					case uAddI:
						regs[u.dst] = regs[u.s0] + u.imm
					case uShlI:
						regs[u.dst] = regs[u.s0] << (uint64(u.imm) & 63)
					case uShrI:
						regs[u.dst] = regs[u.s0] >> (uint64(u.imm) & 63)
					case uAndI:
						regs[u.dst] = regs[u.s0] & u.imm
					case uMulI:
						regs[u.dst] = regs[u.s0] * u.imm
					case uOrI:
						regs[u.dst] = regs[u.s0] | u.imm
					case uXorI:
						regs[u.dst] = regs[u.s0] ^ u.imm
					case uCmp:
						regs[u.dst] = b2i(cmp(u.imm, regs[u.s0], regs[u.s1]))
					}
				}
				if x.xb0 == nil {
					continue
				}
				if x.xb1 == nil || regs[x.s0] != 0 {
					xb = x.xb0
				} else {
					xb = x.xb1
				}
				continue blocks
			case xCmpBr:
				f := cmp(x.imm, regs[x.s0], regs[x.s1])
				regs[x.dst] = b2i(f)
				if f {
					xb = x.xb0
				} else {
					xb = x.xb1
				}
				continue blocks
			case xRet:
				m.stats.Instrs, m.cycles = instrs, cycles
				if x.s0 >= 0 {
					return regs[x.s0], nil
				}
				return 0, nil

			case xLoad:
				addr := uint64(regs[x.s0] + x.imm)
				lat := uint64(m.Hier.Load(addr, cycles))
				if m.fan != nil {
					m.record(laneRec{kind: recLoad, pc: c.loadPCs[x.loadSlot], addr: addr, now: cycles, lat: lat})
				}
				cycles += lat
				regs[x.dst] = m.Mem.Load(addr)
				m.stats.LoadRefs++
				c.loadCount[x.loadSlot]++
				if m.pf != nil {
					m.pf.Observe(c.loadPCs[x.loadSlot], addr, m.Hier, cycles)
				}
			case xSpecLoad:
				// Speculative load: non-faulting and excluded from per-load
				// reference statistics and prefetcher training (it is
				// inserted machinery, not a program load).
				addr := uint64(regs[x.s0] + x.imm)
				lat := uint64(m.Hier.Load(addr, cycles))
				if m.fan != nil {
					m.record(laneRec{kind: recSpecLoad, addr: addr, now: cycles, lat: lat})
				}
				cycles += lat
				regs[x.dst] = m.Mem.Load(addr)
			case xStore:
				addr := uint64(regs[x.s0] + x.imm)
				lat := uint64(m.Hier.Store(addr, cycles))
				if m.fan != nil {
					m.record(laneRec{kind: recStore, addr: addr, now: cycles, lat: lat})
				}
				cycles += lat
				m.Mem.Store(addr, regs[x.s1])
				m.stats.StoreRefs++
			case xPrefetch:
				addr := uint64(regs[x.s0] + x.imm)
				m.stats.PrefetchRefs++
				// Non-faulting: wild addresses are ignored rather than
				// fetched, mirroring lfetch semantics on unmapped pages.
				if !m.noPf && m.Mem.Mapped(addr) {
					m.Hier.PrefetchClass(addr, cycles, obs.Class(x.pfClass))
					if m.fan != nil {
						m.record(laneRec{kind: recPrefetch, class: x.pfClass, addr: addr, now: cycles})
					}
				}

			case xHook:
				m.stats.Instrs, m.cycles = instrs, cycles
				argv := m.argValues(regs, x.args)
				m.stats.HookCalls++
				x.hook(m, argv)
				m.releaseArgs(argv)
				instrs, cycles = m.stats.Instrs, m.cycles
			case xCall:
				m.stats.Instrs, m.cycles = instrs, cycles
				if x.callee == nil {
					return 0, fmt.Errorf("machine: call to unknown function")
				}
				argv := m.argValues(regs, x.args)
				rv, err := m.call(x.callee, argv, depth+1)
				m.releaseArgs(argv)
				instrs, cycles = m.stats.Instrs, m.cycles
				if err != nil {
					return 0, err
				}
				if x.dst >= 0 {
					regs[x.dst] = rv
				}
			case xAlloc:
				regs[x.dst] = int64(m.Heap.TryAlloc(regs[x.s0]))
			case xRand:
				bound := regs[x.s0]
				if bound <= 0 {
					regs[x.dst] = 0
				} else {
					regs[x.dst] = int64(m.nextRand() % uint64(bound))
				}

			case xTrace:
				d := &c.blocks[xb.bi][x.src]
				if m.pairs != nil {
					prev := int32(-1)
					if x.src > 0 {
						prev = int32(c.blocks[xb.bi][x.src-1].op)
					}
					m.pairs.record(prev, d.op)
				}
				if d.src != nil {
					fmt.Fprintf(m.cfg.Trace, "%10d %s/%s: %s\n", cycles, c.name, c.blockNames[xb.bi], d.src)
				}
			}
		}
		m.stats.Instrs, m.cycles = instrs, cycles
		return 0, fmt.Errorf("machine: %s: block %d has no terminator", c.name, xb.bi)
	}
}
