package ebpf

import (
	"encoding/binary"
	"fmt"

	"steelnet/internal/sim"
)

// Load-time compilation: once the verifier accepts a program, each
// instruction is lowered to a straight-line Go closure with its
// operands decoded and its memory sizes specialized — no Insn fetch, no
// opcode switch, and stack accesses proven in bounds by the verifier
// are emitted without runtime checks. This is the machine's only
// executor. ebpf_diff_test.go holds it to an independent reference
// interpreter: for every program, packet, cost model and RNG state the
// two must produce the same verdict, cost, step count, trap PC, packet
// bytes, ring state and RNG draws, over the seed programs, both fuzz
// corpora, seeded random programs and the Fig. 4 shapes.
//
// Closures never capture rings: helpers reach them through the
// executing program (m.prog), so CloneFresh can share compiled code
// between sweep cells while every cell mutates its own state.

// step sentinels returned instead of a next pc.
const (
	pcExit = -1 // OpExit: m.regs[R0] is the verdict
	pcTrap = -2 // runtime fault: m.trap holds the Trap
)

// compiledStep executes one instruction against m and returns the next
// pc or a sentinel.
type compiledStep func(m *vmCtx) int

// vmCtx is one invocation's machine state. Programs own a scratch
// instance so a run allocates nothing; it is reset wholesale at entry.
type vmCtx struct {
	regs   [numRegs]uint64
	stack  [StackSize]byte
	packet []byte
	now    sim.Time
	costs  *CostModel
	rng    *sim.RNG
	cost   sim.Duration
	prog   *Program // live Rings of the executing program
	trap   *Trap
}

// trapf records a runtime fault and returns the trap sentinel.
func (m *vmCtx) trapf(pc int, format string, args ...any) int {
	m.trap = &Trap{PC: pc, Reason: fmt.Sprintf(format, args...)}
	return pcTrap
}

// compile lowers every instruction. Called with the verifier's
// invariants established (valid opcodes, sizes, helpers, stack bounds);
// the defensive arms keep the compiled machine total anyway.
func (p *Program) compile() {
	code := make([]compiledStep, len(p.Insns))
	for pc, in := range p.Insns {
		code[pc] = compileInsn(in, pc)
	}
	p.compiled = code
}

func compileInsn(in Insn, pc int) compiledStep {
	next := pc + 1
	dst, src := in.Dst, in.Src
	imm := uint64(in.Imm)
	switch in.Op {
	case OpMovImm:
		return func(m *vmCtx) int { m.regs[dst] = imm; m.cost += m.costs.ALU; return next }
	case OpMovReg:
		return func(m *vmCtx) int { m.regs[dst] = m.regs[src]; m.cost += m.costs.ALU; return next }
	case OpAddImm:
		return func(m *vmCtx) int { m.regs[dst] += imm; m.cost += m.costs.ALU; return next }
	case OpAddReg:
		return func(m *vmCtx) int { m.regs[dst] += m.regs[src]; m.cost += m.costs.ALU; return next }
	case OpSubImm:
		return func(m *vmCtx) int { m.regs[dst] -= imm; m.cost += m.costs.ALU; return next }
	case OpSubReg:
		return func(m *vmCtx) int { m.regs[dst] -= m.regs[src]; m.cost += m.costs.ALU; return next }
	case OpMulImm:
		return func(m *vmCtx) int { m.regs[dst] *= imm; m.cost += m.costs.ALU; return next }
	case OpMulReg:
		return func(m *vmCtx) int { m.regs[dst] *= m.regs[src]; m.cost += m.costs.ALU; return next }
	case OpDivImm: // imm != 0 per verifier
		return func(m *vmCtx) int { m.regs[dst] /= imm; m.cost += m.costs.ALU; return next }
	case OpDivReg:
		return func(m *vmCtx) int {
			if m.regs[src] == 0 {
				m.regs[dst] = 0 // BPF semantics: div by zero yields 0
			} else {
				m.regs[dst] /= m.regs[src]
			}
			m.cost += m.costs.ALU
			return next
		}
	case OpAndImm:
		return func(m *vmCtx) int { m.regs[dst] &= imm; m.cost += m.costs.ALU; return next }
	case OpAndReg:
		return func(m *vmCtx) int { m.regs[dst] &= m.regs[src]; m.cost += m.costs.ALU; return next }
	case OpOrImm:
		return func(m *vmCtx) int { m.regs[dst] |= imm; m.cost += m.costs.ALU; return next }
	case OpOrReg:
		return func(m *vmCtx) int { m.regs[dst] |= m.regs[src]; m.cost += m.costs.ALU; return next }
	case OpXorImm:
		return func(m *vmCtx) int { m.regs[dst] ^= imm; m.cost += m.costs.ALU; return next }
	case OpXorReg:
		return func(m *vmCtx) int { m.regs[dst] ^= m.regs[src]; m.cost += m.costs.ALU; return next }
	case OpLshImm:
		sh := imm & 63
		return func(m *vmCtx) int { m.regs[dst] <<= sh; m.cost += m.costs.ALU; return next }
	case OpRshImm:
		sh := imm & 63
		return func(m *vmCtx) int { m.regs[dst] >>= sh; m.cost += m.costs.ALU; return next }
	case OpNeg:
		return func(m *vmCtx) int { m.regs[dst] = -m.regs[dst]; m.cost += m.costs.ALU; return next }

	case OpPktLen:
		return func(m *vmCtx) int { m.regs[dst] = uint64(len(m.packet)); m.cost += m.costs.ALU; return next }

	case OpLdPkt:
		return compileLdPkt(dst, src, int64(in.Off), int(in.Size), pc, next)
	case OpStPkt:
		return compileStPkt(dst, src, int64(in.Off), int(in.Size), pc, next)
	case OpLdStack:
		return compileLdStack(dst, int(in.Off), int(in.Size), next)
	case OpStStack:
		return compileStStack(src, int(in.Off), int(in.Size), next)

	case OpJa:
		tgt := pc + 1 + int(in.Off)
		return func(m *vmCtx) int { m.cost += m.costs.ALU; return tgt }
	case OpJEqImm:
		tgt := pc + 1 + int(in.Off)
		return func(m *vmCtx) int {
			m.cost += m.costs.ALU
			if m.regs[dst] == imm {
				return tgt
			}
			return next
		}
	case OpJNeImm:
		tgt := pc + 1 + int(in.Off)
		return func(m *vmCtx) int {
			m.cost += m.costs.ALU
			if m.regs[dst] != imm {
				return tgt
			}
			return next
		}
	case OpJGtImm:
		tgt := pc + 1 + int(in.Off)
		return func(m *vmCtx) int {
			m.cost += m.costs.ALU
			if m.regs[dst] > imm {
				return tgt
			}
			return next
		}
	case OpJLtImm:
		tgt := pc + 1 + int(in.Off)
		return func(m *vmCtx) int {
			m.cost += m.costs.ALU
			if m.regs[dst] < imm {
				return tgt
			}
			return next
		}
	case OpJGeImm:
		tgt := pc + 1 + int(in.Off)
		return func(m *vmCtx) int {
			m.cost += m.costs.ALU
			if m.regs[dst] >= imm {
				return tgt
			}
			return next
		}
	case OpJEqReg:
		tgt := pc + 1 + int(in.Off)
		return func(m *vmCtx) int {
			m.cost += m.costs.ALU
			if m.regs[dst] == m.regs[src] {
				return tgt
			}
			return next
		}
	case OpJNeReg:
		tgt := pc + 1 + int(in.Off)
		return func(m *vmCtx) int {
			m.cost += m.costs.ALU
			if m.regs[dst] != m.regs[src] {
				return tgt
			}
			return next
		}
	case OpJGtReg:
		tgt := pc + 1 + int(in.Off)
		return func(m *vmCtx) int {
			m.cost += m.costs.ALU
			if m.regs[dst] > m.regs[src] {
				return tgt
			}
			return next
		}

	case OpCall:
		return compileCall(in.Imm, pc, next)

	case OpExit:
		return func(m *vmCtx) int {
			if m.rng != nil && m.costs.RunNoiseSD > 0 {
				n := m.rng.Norm(0, float64(m.costs.RunNoiseSD))
				if n < 0 {
					n = -n
				}
				m.cost += sim.Duration(n)
			}
			return pcExit
		}

	default:
		op := in.Op
		return func(m *vmCtx) int { return m.trapf(pc, "invalid opcode %v", op) }
	}
}

// compileLdPkt specializes the packet load per access size. The bounds
// check never computes o+size, which can wrap for o near MaxInt64.
func compileLdPkt(dst, src Reg, off int64, size, pc, next int) compiledStep {
	oob := func(m *vmCtx, o int64) int {
		return m.trapf(pc, "packet read [%d,+%d) out of bounds (len %d)", o, size, len(m.packet))
	}
	switch size {
	case 1:
		return func(m *vmCtx) int {
			o := int64(m.regs[src]) + off
			if o < 0 || o > int64(len(m.packet))-1 {
				return oob(m, o)
			}
			m.regs[dst] = uint64(m.packet[o])
			m.cost += m.costs.PktMem
			return next
		}
	case 2:
		return func(m *vmCtx) int {
			o := int64(m.regs[src]) + off
			if o < 0 || o > int64(len(m.packet))-2 {
				return oob(m, o)
			}
			m.regs[dst] = uint64(binary.BigEndian.Uint16(m.packet[o:]))
			m.cost += m.costs.PktMem
			return next
		}
	case 4:
		return func(m *vmCtx) int {
			o := int64(m.regs[src]) + off
			if o < 0 || o > int64(len(m.packet))-4 {
				return oob(m, o)
			}
			m.regs[dst] = uint64(binary.BigEndian.Uint32(m.packet[o:]))
			m.cost += m.costs.PktMem
			return next
		}
	default: // 8 per verifier
		return func(m *vmCtx) int {
			o := int64(m.regs[src]) + off
			if o < 0 || o > int64(len(m.packet))-8 {
				return oob(m, o)
			}
			m.regs[dst] = binary.BigEndian.Uint64(m.packet[o:])
			m.cost += m.costs.PktMem
			return next
		}
	}
}

func compileStPkt(dst, src Reg, off int64, size, pc, next int) compiledStep {
	return func(m *vmCtx) int {
		o := int64(m.regs[dst]) + off
		if !storeBE(m.packet, o, size, m.regs[src]) {
			return m.trapf(pc, "packet write [%d,+%d) out of bounds (len %d)", o, size, len(m.packet))
		}
		m.cost += m.costs.PktMem
		return next
	}
}

// compileLdStack and compileStStack need no bounds check at all: the
// verifier proved [off, off+size) fits the 512-byte frame.
func compileLdStack(dst Reg, off, size, next int) compiledStep {
	switch size {
	case 1:
		return func(m *vmCtx) int { m.regs[dst] = uint64(m.stack[off]); m.cost += m.costs.StackMem; return next }
	case 2:
		return func(m *vmCtx) int {
			m.regs[dst] = uint64(binary.BigEndian.Uint16(m.stack[off:]))
			m.cost += m.costs.StackMem
			return next
		}
	case 4:
		return func(m *vmCtx) int {
			m.regs[dst] = uint64(binary.BigEndian.Uint32(m.stack[off:]))
			m.cost += m.costs.StackMem
			return next
		}
	default: // 8 per verifier
		return func(m *vmCtx) int {
			m.regs[dst] = binary.BigEndian.Uint64(m.stack[off:])
			m.cost += m.costs.StackMem
			return next
		}
	}
}

func compileStStack(src Reg, off, size, next int) compiledStep {
	switch size {
	case 1:
		return func(m *vmCtx) int { m.stack[off] = byte(m.regs[src]); m.cost += m.costs.StackMem; return next }
	case 2:
		return func(m *vmCtx) int {
			binary.BigEndian.PutUint16(m.stack[off:], uint16(m.regs[src]))
			m.cost += m.costs.StackMem
			return next
		}
	case 4:
		return func(m *vmCtx) int {
			binary.BigEndian.PutUint32(m.stack[off:], uint32(m.regs[src]))
			m.cost += m.costs.StackMem
			return next
		}
	default: // 8 per verifier
		return func(m *vmCtx) int {
			binary.BigEndian.PutUint64(m.stack[off:], m.regs[src])
			m.cost += m.costs.StackMem
			return next
		}
	}
}

// compileCall lowers one helper call. Cost accounting order is CallBase
// before the helper body, helper cost after it, RNG draws last: Ktime
// reads the accumulated cost and RingbufOutput draws from the RNG, so
// the order is observable and the reference interpreter pins it.
func compileCall(helper int64, pc, next int) compiledStep {
	switch helper {
	case HelperKtime:
		return func(m *vmCtx) int {
			m.cost += m.costs.CallBase
			m.regs[R0] = uint64(m.now) + uint64(m.cost)
			m.cost += m.costs.Ktime
			return next
		}
	case HelperRingbufOutput:
		return func(m *vmCtx) int {
			m.cost += m.costs.CallBase
			idx := m.regs[R1]
			if idx >= uint64(len(m.prog.Rings)) {
				return m.trapf(pc, "ring index %d out of range", idx)
			}
			off, n := m.regs[R2], m.regs[R3]
			// Compare without computing off+n: both come straight
			// from registers, and a wrapped sum would slip a huge
			// offset past the bound.
			if n == 0 || off > StackSize || n > StackSize-off {
				return m.trapf(pc, "ringbuf output [%d,+%d) outside stack", off, n)
			}
			if m.prog.Rings[idx].Output(m.stack[off : off+n]) {
				m.regs[R0] = 1
			} else {
				m.regs[R0] = 0
			}
			m.cost += m.costs.RingbufOutput
			if m.rng != nil && m.costs.RingbufWakeProb > 0 && m.rng.Bool(m.costs.RingbufWakeProb) {
				m.cost += m.costs.RingbufWakeCost
			}
			return next
		}
	default:
		return func(m *vmCtx) int {
			m.cost += m.costs.CallBase
			return m.trapf(pc, "unknown helper %d", helper)
		}
	}
}

// CloneFresh returns a program sharing this one's verified instruction
// stream and compiled code, with fresh zero-state rings of the same
// capacities. Sweep harnesses compile a variant once and clone it per
// cell: the code is immutable and shareable, the state is not.
func (p *Program) CloneFresh() *Program {
	c := &Program{
		Name:     p.Name,
		Insns:    p.Insns,
		verified: p.verified,
		compiled: p.compiled,
	}
	if len(p.Rings) > 0 {
		c.Rings = make([]*RingBuf, len(p.Rings))
		for i, r := range p.Rings {
			c.Rings[i] = NewRingBuf(r.Name, r.capacity)
		}
	}
	return c
}
