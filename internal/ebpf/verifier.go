package ebpf

import "fmt"

// MaxInsns bounds program size, as the kernel does.
const MaxInsns = 4096

// VerifyError describes a verifier rejection.
type VerifyError struct {
	PC     int
	Reason string
}

func (e *VerifyError) Error() string {
	if e.PC < 0 {
		return "ebpf: verifier: " + e.Reason
	}
	return fmt.Sprintf("ebpf: verifier: insn %d: %s", e.PC, e.Reason)
}

// Verify statically checks the program and marks it runnable. The rules
// mirror the kernel properties §3 relies on:
//
//   - bounded size;
//   - only forward jumps, so every program provably terminates;
//   - every path ends in OpExit (no falling off the end);
//   - no read of an uninitialized register on any path (R1/R10 are
//     initialized at entry; helper argument registers are checked at
//     call sites);
//   - R10 (frame pointer) is never written;
//   - stack accesses are statically in bounds;
//   - immediate division by zero is rejected;
//   - helper IDs and memory-op sizes are valid.
//
// There are no floating-point instructions to reject: the ISA has none.
func (p *Program) Verify() error {
	n := len(p.Insns)
	if n == 0 {
		return &VerifyError{PC: -1, Reason: "empty program"}
	}
	if n > MaxInsns {
		return &VerifyError{PC: -1, Reason: fmt.Sprintf("program too large: %d > %d", n, MaxInsns)}
	}

	// Structural, per-instruction checks.
	for pc, in := range p.Insns {
		if in.Op == OpInvalid || in.Op >= numOps {
			return &VerifyError{PC: pc, Reason: fmt.Sprintf("invalid opcode %d", in.Op)}
		}
		if in.Dst >= numRegs || in.Src >= numRegs {
			return &VerifyError{PC: pc, Reason: "register out of range"}
		}
		if w := in.writes(); w == R10 {
			return &VerifyError{PC: pc, Reason: "write to frame pointer R10"}
		}
		if in.isJump() {
			if in.Off < 1 {
				return &VerifyError{PC: pc, Reason: fmt.Sprintf("backward or zero jump offset %d", in.Off)}
			}
			if tgt := pc + 1 + int(in.Off); tgt >= n {
				return &VerifyError{PC: pc, Reason: fmt.Sprintf("jump target %d out of range", tgt)}
			}
		}
		switch in.Op {
		case OpLdPkt, OpStPkt, OpLdStack, OpStStack:
			switch in.Size {
			case 1, 2, 4, 8:
			default:
				return &VerifyError{PC: pc, Reason: fmt.Sprintf("bad memory size %d", in.Size)}
			}
		}
		switch in.Op {
		case OpLdStack, OpStStack:
			if in.Off < 0 || int(in.Off)+int(in.Size) > StackSize {
				return &VerifyError{PC: pc, Reason: fmt.Sprintf("stack access [%d,+%d) out of bounds", in.Off, in.Size)}
			}
		case OpDivImm:
			if in.Imm == 0 {
				return &VerifyError{PC: pc, Reason: "division by zero immediate"}
			}
		case OpLshImm, OpRshImm:
			if in.Imm < 0 || in.Imm > 63 {
				return &VerifyError{PC: pc, Reason: fmt.Sprintf("shift amount %d out of range", in.Imm)}
			}
		case OpCall:
			if _, ok := helperArgs[in.Imm]; !ok {
				return &VerifyError{PC: pc, Reason: fmt.Sprintf("unknown helper %d", in.Imm)}
			}
		}
	}

	// Dataflow: definite-initialization analysis over the CFG. Because
	// all jumps are forward, a reverse-postorder pass in instruction
	// order converges in one sweep; states merge by intersection.
	const unreached = -1
	states := make([]int32, n) // bitmask of definitely-init registers
	for i := range states {
		states[i] = unreached
	}
	entry := int32(1<<R1 | 1<<R10)
	states[0] = entry
	terminated := false
	for pc := 0; pc < n; pc++ {
		st := states[pc]
		if st == unreached {
			continue // dead code is legal, just never executed
		}
		in := p.Insns[pc]
		need := in.reads()
		if in.Op == OpCall {
			need = helperArgs[in.Imm]
		}
		for _, r := range need {
			if st&(1<<r) == 0 {
				return &VerifyError{PC: pc, Reason: fmt.Sprintf("read of uninitialized register r%d", r)}
			}
		}
		out := st
		if w := in.writes(); w < numRegs {
			out |= 1 << w
		}
		merge := func(tgt int) {
			if states[tgt] == unreached {
				states[tgt] = out
			} else {
				states[tgt] &= out
			}
		}
		switch {
		case in.Op == OpExit:
			terminated = true
		case in.Op == OpJa:
			merge(pc + 1 + int(in.Off))
		case in.conditional():
			merge(pc + 1 + int(in.Off))
			if pc+1 >= n {
				return &VerifyError{PC: pc, Reason: "control flow falls off program end"}
			}
			merge(pc + 1)
		default:
			if pc+1 >= n {
				return &VerifyError{PC: pc, Reason: "control flow falls off program end"}
			}
			merge(pc + 1)
		}
	}
	if !terminated {
		return &VerifyError{PC: -1, Reason: "no reachable exit"}
	}

	p.verified = true
	// Load-time compilation: lower the accepted program to straight-line
	// closures once, here, the way the kernel JITs after verification.
	p.compile()
	return nil
}

// MustVerify panics when verification fails; for statically known-good
// programs in tests and examples.
func (p *Program) MustVerify() *Program {
	if err := p.Verify(); err != nil {
		panic(err)
	}
	return p
}

// Verified reports whether Verify has accepted the program.
func (p *Program) Verified() bool { return p.verified }
