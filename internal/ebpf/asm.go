package ebpf

import "fmt"

// Asm builds programs fluently with named labels, so the six reflection
// variants read like assembly listings rather than index arithmetic.
type Asm struct {
	name   string
	insns  []Insn
	rings  []*RingBuf
	labels map[string]int // label -> instruction index
	fixups map[int]string // jump insn index -> label
}

// NewAsm starts a program named name.
func NewAsm(name string) *Asm {
	return &Asm{name: name, labels: make(map[string]int), fixups: make(map[int]string)}
}

// WithRing registers a ring buffer and returns its helper index.
func (a *Asm) WithRing(r *RingBuf) int64 {
	a.rings = append(a.rings, r)
	return int64(len(a.rings) - 1)
}

// Label marks the next instruction as a jump target.
func (a *Asm) Label(name string) *Asm {
	if _, dup := a.labels[name]; dup {
		panic(fmt.Sprintf("ebpf: duplicate label %q", name))
	}
	a.labels[name] = len(a.insns)
	return a
}

func (a *Asm) emit(in Insn) *Asm {
	a.insns = append(a.insns, in)
	return a
}

// MovImm emits dst = imm.
func (a *Asm) MovImm(dst Reg, imm int64) *Asm { return a.emit(Insn{Op: OpMovImm, Dst: dst, Imm: imm}) }

// MovReg emits dst = src.
func (a *Asm) MovReg(dst, src Reg) *Asm { return a.emit(Insn{Op: OpMovReg, Dst: dst, Src: src}) }

// AddImm emits dst += imm.
func (a *Asm) AddImm(dst Reg, imm int64) *Asm { return a.emit(Insn{Op: OpAddImm, Dst: dst, Imm: imm}) }

// AddReg emits dst += src.
func (a *Asm) AddReg(dst, src Reg) *Asm { return a.emit(Insn{Op: OpAddReg, Dst: dst, Src: src}) }

// SubImm emits dst -= imm.
func (a *Asm) SubImm(dst Reg, imm int64) *Asm { return a.emit(Insn{Op: OpSubImm, Dst: dst, Imm: imm}) }

// SubReg emits dst -= src.
func (a *Asm) SubReg(dst, src Reg) *Asm { return a.emit(Insn{Op: OpSubReg, Dst: dst, Src: src}) }

// MulImm emits dst *= imm.
func (a *Asm) MulImm(dst Reg, imm int64) *Asm { return a.emit(Insn{Op: OpMulImm, Dst: dst, Imm: imm}) }

// AndImm emits dst &= imm.
func (a *Asm) AndImm(dst Reg, imm int64) *Asm { return a.emit(Insn{Op: OpAndImm, Dst: dst, Imm: imm}) }

// XorReg emits dst ^= src.
func (a *Asm) XorReg(dst, src Reg) *Asm { return a.emit(Insn{Op: OpXorReg, Dst: dst, Src: src}) }

// LdPkt emits dst = packet[src+off : +size] (big-endian).
func (a *Asm) LdPkt(dst, src Reg, off int32, size uint8) *Asm {
	return a.emit(Insn{Op: OpLdPkt, Dst: dst, Src: src, Off: off, Size: size})
}

// StPkt emits packet[dst+off : +size] = src.
func (a *Asm) StPkt(dst Reg, off int32, src Reg, size uint8) *Asm {
	return a.emit(Insn{Op: OpStPkt, Dst: dst, Src: src, Off: off, Size: size})
}

// LdStack emits dst = stack[off : +size].
func (a *Asm) LdStack(dst Reg, off int32, size uint8) *Asm {
	return a.emit(Insn{Op: OpLdStack, Dst: dst, Off: off, Size: size})
}

// StStack emits stack[off : +size] = src.
func (a *Asm) StStack(off int32, src Reg, size uint8) *Asm {
	return a.emit(Insn{Op: OpStStack, Src: src, Off: off, Size: size})
}

// PktLen emits dst = len(packet).
func (a *Asm) PktLen(dst Reg) *Asm { return a.emit(Insn{Op: OpPktLen, Dst: dst}) }

// Ja emits an unconditional jump to label.
func (a *Asm) Ja(label string) *Asm { return a.jmp(Insn{Op: OpJa}, label) }

// JEqImm jumps to label when dst == imm.
func (a *Asm) JEqImm(dst Reg, imm int64, label string) *Asm {
	return a.jmp(Insn{Op: OpJEqImm, Dst: dst, Imm: imm}, label)
}

// JNeImm jumps to label when dst != imm.
func (a *Asm) JNeImm(dst Reg, imm int64, label string) *Asm {
	return a.jmp(Insn{Op: OpJNeImm, Dst: dst, Imm: imm}, label)
}

// JGtImm jumps to label when dst > imm.
func (a *Asm) JGtImm(dst Reg, imm int64, label string) *Asm {
	return a.jmp(Insn{Op: OpJGtImm, Dst: dst, Imm: imm}, label)
}

// JLtImm jumps to label when dst < imm.
func (a *Asm) JLtImm(dst Reg, imm int64, label string) *Asm {
	return a.jmp(Insn{Op: OpJLtImm, Dst: dst, Imm: imm}, label)
}

func (a *Asm) jmp(in Insn, label string) *Asm {
	a.fixups[len(a.insns)] = label
	return a.emit(in)
}

// Call emits a helper call.
func (a *Asm) Call(helper int64) *Asm { return a.emit(Insn{Op: OpCall, Imm: helper}) }

// Exit emits program exit (verdict in R0).
func (a *Asm) Exit() *Asm { return a.emit(Insn{Op: OpExit}) }

// Return emits R0 = verdict; exit.
func (a *Asm) Return(verdict uint64) *Asm {
	return a.MovImm(R0, int64(verdict)).Exit()
}

// Program resolves labels and returns the unverified program. Unknown
// labels panic.
func (a *Asm) Program() *Program {
	insns := make([]Insn, len(a.insns))
	copy(insns, a.insns)
	for idx, label := range a.fixups {
		tgt, ok := a.labels[label]
		if !ok {
			panic(fmt.Sprintf("ebpf: undefined label %q", label))
		}
		insns[idx].Off = int32(tgt - idx - 1)
	}
	return &Program{Name: a.name, Insns: insns, Rings: a.rings}
}

// MustProgram builds and verifies, panicking on error.
func (a *Asm) MustProgram() *Program { return a.Program().MustVerify() }
