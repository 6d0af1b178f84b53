package ebpf

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func expectReject(t *testing.T, p *Program, substr string) {
	t.Helper()
	err := p.Verify()
	if err == nil {
		t.Fatalf("program accepted, want rejection containing %q", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("err = %v, want substring %q", err, substr)
	}
}

func TestVerifyAcceptsMinimalProgram(t *testing.T) {
	p := &Program{Insns: []Insn{{Op: OpMovImm, Dst: R0, Imm: 2}, {Op: OpExit}}}
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	if !p.Verified() {
		t.Fatal("not marked verified")
	}
}

func TestVerifyRejectsEmpty(t *testing.T) {
	expectReject(t, &Program{}, "empty")
}

func TestVerifyRejectsTooLarge(t *testing.T) {
	insns := make([]Insn, MaxInsns+1)
	for i := range insns {
		insns[i] = Insn{Op: OpMovImm, Dst: R0}
	}
	insns[len(insns)-1] = Insn{Op: OpExit}
	expectReject(t, &Program{Insns: insns}, "too large")
}

func TestVerifyRejectsBackwardJump(t *testing.T) {
	p := &Program{Insns: []Insn{
		{Op: OpMovImm, Dst: R0, Imm: 0},
		{Op: OpJa, Off: -1}, // loop forever
		{Op: OpExit},
	}}
	expectReject(t, p, "backward")
}

func TestVerifyRejectsZeroOffsetJump(t *testing.T) {
	// Off=0 jumps to the next insn — harmless but the kernel-style rule
	// is strictly positive; our rule requires >= 1 so Off 0 is rejected
	// as it encodes "jump to self+1" ambiguity in our relative scheme.
	p := &Program{Insns: []Insn{
		{Op: OpMovImm, Dst: R0, Imm: 0},
		{Op: OpJa, Off: 0},
		{Op: OpExit},
	}}
	expectReject(t, p, "backward or zero")
}

func TestVerifyRejectsJumpOutOfRange(t *testing.T) {
	p := &Program{Insns: []Insn{
		{Op: OpMovImm, Dst: R0, Imm: 0},
		{Op: OpJa, Off: 10},
		{Op: OpExit},
	}}
	expectReject(t, p, "out of range")
}

func TestVerifyRejectsUninitializedRead(t *testing.T) {
	p := &Program{Insns: []Insn{
		{Op: OpMovReg, Dst: R0, Src: R5}, // R5 never written
		{Op: OpExit},
	}}
	expectReject(t, p, "uninitialized register r5")
}

func TestVerifyRejectsUninitializedExit(t *testing.T) {
	p := &Program{Insns: []Insn{{Op: OpExit}}}
	expectReject(t, p, "uninitialized register r0")
}

func TestVerifyMergesBranchStatesByIntersection(t *testing.T) {
	// R2 initialized on only one branch: reading it after the join must
	// be rejected.
	p := &Program{Insns: []Insn{
		{Op: OpMovImm, Dst: R3, Imm: 1},
		{Op: OpJEqImm, Dst: R3, Imm: 0, Off: 1}, // skip init on one path
		{Op: OpMovImm, Dst: R2, Imm: 7},
		{Op: OpMovReg, Dst: R0, Src: R2}, // join: R2 maybe-uninit
		{Op: OpExit},
	}}
	expectReject(t, p, "uninitialized register r2")
}

func TestVerifyAcceptsBothBranchesInit(t *testing.T) {
	p := &Program{Insns: []Insn{
		{Op: OpMovImm, Dst: R3, Imm: 1},
		{Op: OpJEqImm, Dst: R3, Imm: 0, Off: 2},
		{Op: OpMovImm, Dst: R2, Imm: 7},
		{Op: OpJa, Off: 1},
		{Op: OpMovImm, Dst: R2, Imm: 9},
		{Op: OpMovReg, Dst: R0, Src: R2},
		{Op: OpExit},
	}}
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyRejectsWriteToFramePointer(t *testing.T) {
	p := &Program{Insns: []Insn{
		{Op: OpMovImm, Dst: R10, Imm: 0},
		{Op: OpExit},
	}}
	expectReject(t, p, "frame pointer")
}

func TestVerifyRejectsStackOutOfBounds(t *testing.T) {
	p := &Program{Insns: []Insn{
		{Op: OpMovImm, Dst: R2, Imm: 0},
		{Op: OpStStack, Src: R2, Off: 508, Size: 8},
		{Op: OpMovImm, Dst: R0, Imm: 2},
		{Op: OpExit},
	}}
	expectReject(t, p, "stack access")
}

func TestVerifyRejectsDivByZeroImm(t *testing.T) {
	p := &Program{Insns: []Insn{
		{Op: OpMovImm, Dst: R2, Imm: 1},
		{Op: OpDivImm, Dst: R2, Imm: 0},
		{Op: OpMovImm, Dst: R0, Imm: 2},
		{Op: OpExit},
	}}
	expectReject(t, p, "division by zero")
}

func TestVerifyRejectsBadShift(t *testing.T) {
	p := &Program{Insns: []Insn{
		{Op: OpMovImm, Dst: R2, Imm: 1},
		{Op: OpLshImm, Dst: R2, Imm: 64},
		{Op: OpMovImm, Dst: R0, Imm: 2},
		{Op: OpExit},
	}}
	expectReject(t, p, "shift amount")
}

func TestVerifyRejectsUnknownHelper(t *testing.T) {
	// 1 and 2 sit between the two helpers and are assigned to none.
	for _, id := range []int64{-1, 1, 2, 4, 99} {
		p := &Program{Insns: []Insn{
			{Op: OpMovImm, Dst: R2, Imm: 0},
			{Op: OpMovImm, Dst: R3, Imm: 8},
			{Op: OpCall, Imm: id},
			{Op: OpExit},
		}}
		expectReject(t, p, fmt.Sprintf("insn 2: unknown helper %d", id))
	}
}

// TestHelperIDs pins the helper numbers: Program.FoldState folds each
// call's Imm, so renumbering a helper would move every Fig. 4 digest.
func TestHelperIDs(t *testing.T) {
	if HelperKtime != 0 || HelperRingbufOutput != 3 {
		t.Fatalf("HelperKtime = %d, HelperRingbufOutput = %d; want 0 and 3", HelperKtime, HelperRingbufOutput)
	}
}

func TestVerifyRejectsUninitializedHelperArgs(t *testing.T) {
	p := &Program{Insns: []Insn{
		{Op: OpCall, Imm: HelperRingbufOutput}, // needs R1,R2,R3; R2 uninit
		{Op: OpExit},
	}}
	expectReject(t, p, "uninitialized register r2")
}

func TestVerifyRejectsFallOffEnd(t *testing.T) {
	p := &Program{Insns: []Insn{
		{Op: OpMovImm, Dst: R0, Imm: 2},
	}}
	expectReject(t, p, "falls off")
}

func TestVerifyRejectsConditionalFallOffEnd(t *testing.T) {
	p := &Program{Insns: []Insn{
		{Op: OpMovImm, Dst: R0, Imm: 2},
		{Op: OpJa, Off: 1},
		{Op: OpExit},
		{Op: OpJEqImm, Dst: R0, Imm: 0, Off: 0},
	}}
	// The last conditional jump has Off 0, rejected structurally first.
	if err := p.Verify(); err == nil {
		t.Fatal("accepted")
	}
}

func TestVerifyAcceptsJumpChains(t *testing.T) {
	// Jump over a dead exit to a live one; with forward-only bounded
	// jumps a truly exitless program is impossible, so reachability of
	// some exit is the invariant.
	p := &Program{Insns: []Insn{
		{Op: OpMovImm, Dst: R0, Imm: 2},
		{Op: OpJa, Off: 1},
		{Op: OpExit}, // dead
		{Op: OpExit}, // live
	}}
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyDeadCodeIsLegal(t *testing.T) {
	p := &Program{Insns: []Insn{
		{Op: OpMovImm, Dst: R0, Imm: 2},
		{Op: OpJa, Off: 1},
		{Op: OpMovReg, Dst: R0, Src: R9}, // dead: would be uninit read
		{Op: OpExit},
	}}
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyRejectsInvalidOpcode(t *testing.T) {
	expectReject(t, &Program{Insns: []Insn{{Op: OpInvalid}, {Op: OpExit}}}, "invalid opcode")
	expectReject(t, &Program{Insns: []Insn{{Op: numOps}, {Op: OpExit}}}, "invalid opcode")
}

func TestVerifyRejectsBadRegister(t *testing.T) {
	expectReject(t, &Program{Insns: []Insn{
		{Op: OpMovImm, Dst: 12, Imm: 0},
		{Op: OpExit},
	}}, "register out of range")
}

func TestVerifyRejectsBadMemSize(t *testing.T) {
	expectReject(t, &Program{Insns: []Insn{
		{Op: OpMovImm, Dst: R2, Imm: 0},
		{Op: OpLdPkt, Dst: R3, Src: R2, Size: 3},
		{Op: OpMovImm, Dst: R0, Imm: 2},
		{Op: OpExit},
	}}, "bad memory size")
}

func TestVerifiedProgramsAlwaysTerminate(t *testing.T) {
	// Property: any program the verifier accepts halts within maxSteps.
	// Generate random (mostly invalid) programs; run the survivors.
	f := func(seed uint64, raw []uint8) bool {
		if len(raw) < 4 {
			return true
		}
		n := len(raw) / 4
		insns := make([]Insn, 0, n+1)
		for i := 0; i < n; i++ {
			b := raw[i*4 : i*4+4]
			insns = append(insns, Insn{
				Op:   Op(b[0] % uint8(numOps)),
				Dst:  Reg(b[1] % numRegs),
				Src:  Reg(b[2] % numRegs),
				Off:  int32(b[3] % 8),
				Imm:  int64(b[3]),
				Size: []uint8{1, 2, 4, 8}[b[1]%4],
			})
		}
		insns = append(insns, Insn{Op: OpExit})
		p := &Program{Name: "fuzz", Insns: insns}
		if err := p.Verify(); err != nil {
			return true // rejection is fine
		}
		res, _ := p.Run(make([]byte, 64), 0, nil, nil)
		return res.Steps <= maxSteps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
