// Package ebpf implements an eBPF-style packet processor: a register
// machine with a static verifier, a ring buffer, and an
// XDP hook with PASS/DROP/TX verdicts. It substitutes for the real Linux
// eBPF/XDP substrate in the Traffic Reflection experiments (§3): the six
// program variants of Fig. 4 are written in this instruction set, and a
// calibrated per-instruction/per-helper cost model plus the host
// contention model reproduces the paper's two findings — helper choice
// shifts the delay CDF, and co-resident flows widen the jitter CDF.
//
// Like the kernel's eBPF, the machine has no floating-point instructions
// at all and the verifier admits only provably terminating programs
// (forward jumps only), the two properties §3 credits eBPF for.
package ebpf

import "fmt"

// Reg is a register index. R0 holds return values, R1 the context
// (packet) on entry, R10 is the read-only frame pointer.
type Reg uint8

// Registers.
const (
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10
	numRegs = 11
)

// Op is an instruction opcode.
type Op uint8

// Opcodes. ALU ops come in Imm (dst op= imm) and Reg (dst op= src) forms.
const (
	OpInvalid Op = iota

	OpMovImm
	OpMovReg
	OpAddImm
	OpAddReg
	OpSubImm
	OpSubReg
	OpMulImm
	OpMulReg
	OpDivImm // unsigned; div-by-zero immediate is rejected by the verifier
	OpDivReg // unsigned; div-by-zero at runtime yields 0, like BPF
	OpAndImm
	OpAndReg
	OpOrImm
	OpOrReg
	OpXorImm
	OpXorReg
	OpLshImm
	OpRshImm
	OpNeg

	// OpLdPkt loads Size bytes big-endian from packet offset src+Off into
	// dst. OpStPkt stores Size bytes of src to packet offset dst+Off.
	// Out-of-bounds access traps at runtime (the packet length is only
	// known then), aborting the program like a failed bounds check.
	OpLdPkt
	OpStPkt

	// OpLdStack/OpStStack access the 512-byte stack frame at offset
	// Off (verified statically).
	OpLdStack
	OpStStack

	// OpPktLen loads the packet length into dst.
	OpPktLen

	// Jumps. Off is relative to the next instruction and must be
	// positive (forward) to pass the verifier.
	OpJa     // unconditional
	OpJEqImm // if dst == imm
	OpJNeImm // if dst != imm
	OpJGtImm // if dst > imm (unsigned)
	OpJLtImm // if dst < imm (unsigned)
	OpJGeImm // if dst >= imm (unsigned)
	OpJEqReg // if dst == src
	OpJNeReg // if dst != src
	OpJGtReg // if dst > src (unsigned)

	OpCall // call helper Imm
	OpExit

	numOps
)

var opNames = [...]string{
	OpInvalid: "invalid",
	OpMovImm:  "mov.i", OpMovReg: "mov.r",
	OpAddImm: "add.i", OpAddReg: "add.r",
	OpSubImm: "sub.i", OpSubReg: "sub.r",
	OpMulImm: "mul.i", OpMulReg: "mul.r",
	OpDivImm: "div.i", OpDivReg: "div.r",
	OpAndImm: "and.i", OpAndReg: "and.r",
	OpOrImm: "or.i", OpOrReg: "or.r",
	OpXorImm: "xor.i", OpXorReg: "xor.r",
	OpLshImm: "lsh.i", OpRshImm: "rsh.i",
	OpNeg:   "neg",
	OpLdPkt: "ldpkt", OpStPkt: "stpkt",
	OpLdStack: "ldstk", OpStStack: "ststk",
	OpPktLen: "pktlen",
	OpJa:     "ja",
	OpJEqImm: "jeq.i", OpJNeImm: "jne.i", OpJGtImm: "jgt.i",
	OpJLtImm: "jlt.i", OpJGeImm: "jge.i",
	OpJEqReg: "jeq.r", OpJNeReg: "jne.r", OpJGtReg: "jgt.r",
	OpCall: "call", OpExit: "exit",
}

// String returns the mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Insn is one instruction. Size applies to packet/stack memory ops and
// is 1, 2, 4 or 8 bytes.
type Insn struct {
	Op   Op
	Dst  Reg
	Src  Reg
	Off  int32
	Imm  int64
	Size uint8
}

// String disassembles the instruction.
func (i Insn) String() string {
	switch i.Op {
	case OpExit:
		return "exit"
	case OpCall:
		return fmt.Sprintf("call %d", i.Imm)
	case OpJa:
		return fmt.Sprintf("ja +%d", i.Off)
	case OpLdPkt:
		return fmt.Sprintf("ldpkt%d r%d, [r%d%+d]", i.Size, i.Dst, i.Src, i.Off)
	case OpStPkt:
		return fmt.Sprintf("stpkt%d [r%d%+d], r%d", i.Size, i.Dst, i.Off, i.Src)
	case OpLdStack:
		return fmt.Sprintf("ldstk%d r%d, [fp%+d]", i.Size, i.Dst, i.Off)
	case OpStStack:
		return fmt.Sprintf("ststk%d [fp%+d], r%d", i.Size, i.Off, i.Src)
	default:
		return fmt.Sprintf("%s r%d, r%d, off=%d imm=%d", i.Op, i.Dst, i.Src, i.Off, i.Imm)
	}
}

// isJump reports whether the instruction can branch.
func (i Insn) isJump() bool {
	switch i.Op {
	case OpJa, OpJEqImm, OpJNeImm, OpJGtImm, OpJLtImm, OpJGeImm,
		OpJEqReg, OpJNeReg, OpJGtReg:
		return true
	}
	return false
}

// conditional reports whether the jump can also fall through.
func (i Insn) conditional() bool { return i.isJump() && i.Op != OpJa }

// reads returns the registers the instruction reads.
func (i Insn) reads() []Reg {
	switch i.Op {
	case OpMovImm, OpPktLen, OpLdStack:
		return nil
	case OpMovReg:
		return []Reg{i.Src}
	case OpAddImm, OpSubImm, OpMulImm, OpDivImm, OpAndImm, OpOrImm,
		OpXorImm, OpLshImm, OpRshImm, OpNeg,
		OpJEqImm, OpJNeImm, OpJGtImm, OpJLtImm, OpJGeImm:
		return []Reg{i.Dst}
	case OpAddReg, OpSubReg, OpMulReg, OpDivReg, OpAndReg, OpOrReg,
		OpXorReg, OpJEqReg, OpJNeReg, OpJGtReg:
		return []Reg{i.Dst, i.Src}
	case OpLdPkt:
		return []Reg{i.Src}
	case OpStPkt:
		return []Reg{i.Dst, i.Src}
	case OpStStack:
		return []Reg{i.Src}
	case OpCall:
		// Helpers read their argument registers; which ones depends on
		// the helper and is checked by the verifier separately.
		return nil
	case OpExit:
		return []Reg{R0}
	}
	return nil
}

// writes returns the register the instruction defines, or numRegs.
func (i Insn) writes() Reg {
	switch i.Op {
	case OpMovImm, OpMovReg, OpAddImm, OpAddReg, OpSubImm, OpSubReg,
		OpMulImm, OpMulReg, OpDivImm, OpDivReg, OpAndImm, OpAndReg,
		OpOrImm, OpOrReg, OpXorImm, OpXorReg, OpLshImm, OpRshImm,
		OpNeg, OpLdPkt, OpLdStack, OpPktLen:
		return i.Dst
	case OpCall:
		return R0
	}
	return numRegs
}
