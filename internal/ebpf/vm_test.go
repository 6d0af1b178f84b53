package ebpf

import (
	"bytes"
	"strings"
	"testing"

	"steelnet/internal/sim"
)

// run executes a verified program over packet with deterministic costs.
func run(t *testing.T, p *Program, packet []byte) Result {
	t.Helper()
	costs := DefaultCosts
	costs.RunNoiseSD = 0
	costs.RingbufWakeProb = 0
	res, err := p.Run(packet, 0, &costs, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func TestReturnVerdict(t *testing.T) {
	p := NewAsm("pass").Return(XDPPass).MustProgram()
	res := run(t, p, []byte{1, 2, 3})
	if res.Verdict != XDPPass {
		t.Fatalf("verdict = %d", res.Verdict)
	}
	if res.Steps != 2 {
		t.Fatalf("steps = %d", res.Steps)
	}
}

func TestALUArithmetic(t *testing.T) {
	p := NewAsm("alu").
		MovImm(R2, 10).
		AddImm(R2, 5).
		MovImm(R3, 3).
		MulImm(R3, 7).  // 21
		AddReg(R2, R3). // 36
		SubImm(R2, 6).  // 30
		MovReg(R0, R2).
		Exit().
		MustProgram()
	if res := run(t, p, nil); res.Verdict != 30 {
		t.Fatalf("verdict = %d", res.Verdict)
	}
}

func TestDivByZeroRegYieldsZero(t *testing.T) {
	p := (&Program{Name: "div0", Insns: []Insn{
		{Op: OpMovImm, Dst: R2, Imm: 100},
		{Op: OpMovImm, Dst: R3, Imm: 0},
		{Op: OpDivReg, Dst: R2, Src: R3},
		{Op: OpMovReg, Dst: R0, Src: R2},
		{Op: OpExit},
	}}).MustVerify()
	if res := run(t, p, nil); res.Verdict != 0 {
		t.Fatalf("verdict = %d", res.Verdict)
	}
}

func TestPacketLoadStore(t *testing.T) {
	// Read byte at offset 2, double it, write to offset 0.
	p := NewAsm("pkt").
		MovImm(R2, 0).
		LdPkt(R3, R2, 2, 1).
		MulImm(R3, 2).
		StPkt(R2, 0, R3, 1).
		Return(XDPTx).
		MustProgram()
	pkt := []byte{0, 0, 21}
	res := run(t, p, pkt)
	if res.Verdict != XDPTx {
		t.Fatalf("verdict = %d", res.Verdict)
	}
	if pkt[0] != 42 {
		t.Fatalf("pkt[0] = %d", pkt[0])
	}
}

func TestPacketOutOfBoundsTraps(t *testing.T) {
	p := NewAsm("oob").
		MovImm(R2, 0).
		LdPkt(R3, R2, 100, 8).
		Return(XDPPass).
		MustProgram()
	costs := DefaultCosts
	res, err := p.Run([]byte{1, 2, 3}, 0, &costs, nil)
	if err == nil {
		t.Fatal("OOB read did not trap")
	}
	if res.Verdict != XDPAborted {
		t.Fatalf("verdict = %d", res.Verdict)
	}
	var tr *Trap
	if !asTrap(err, &tr) || !strings.Contains(tr.Error(), "out of bounds") {
		t.Fatalf("err = %v", err)
	}
}

func asTrap(err error, out **Trap) bool {
	t, ok := err.(*Trap)
	if ok {
		*out = t
	}
	return ok
}

func TestStackRoundTrip(t *testing.T) {
	p := NewAsm("stack").
		MovImm(R2, 0xdead).
		StStack(16, R2, 8).
		LdStack(R0, 16, 8).
		Exit().
		MustProgram()
	if res := run(t, p, nil); res.Verdict != 0xdead {
		t.Fatalf("verdict = %#x", res.Verdict)
	}
}

func TestPktLenAndBranch(t *testing.T) {
	// if len(pkt) < 10 -> DROP else PASS
	p := NewAsm("len").
		PktLen(R2).
		JLtImm(R2, 10, "drop").
		Return(XDPPass).
		Label("drop").
		Return(XDPDrop).
		MustProgram()
	if res := run(t, p, make([]byte, 5)); res.Verdict != XDPDrop {
		t.Fatalf("short packet verdict = %d", res.Verdict)
	}
	if res := run(t, p, make([]byte, 20)); res.Verdict != XDPPass {
		t.Fatalf("long packet verdict = %d", res.Verdict)
	}
}

func TestKtimeHelperReturnsTime(t *testing.T) {
	p := NewAsm("ktime").
		Call(HelperKtime).
		Exit().
		MustProgram()
	costs := DefaultCosts
	costs.RunNoiseSD = 0
	res, err := p.Run(nil, sim.Time(1000000), &costs, nil)
	if err != nil {
		t.Fatal(err)
	}
	// ktime includes elapsed execution cost (callbase), so >= now.
	if res.Verdict < 1000000 || res.Verdict > 1001000 {
		t.Fatalf("ktime = %d", res.Verdict)
	}
}

func TestRingbufOutput(t *testing.T) {
	rb := NewRingBuf("events", 8)
	a := NewAsm("rb")
	fd := a.WithRing(rb)
	p := a.
		MovImm(R4, 0xabcd).
		StStack(0, R4, 8).
		MovImm(R1, fd).
		MovImm(R2, 0). // stack offset
		MovImm(R3, 8). // length
		Call(HelperRingbufOutput).
		Exit().
		MustProgram()
	res := run(t, p, nil)
	if res.Verdict != 1 {
		t.Fatalf("output returned %d", res.Verdict)
	}
	rec := rb.Read()
	if len(rec) != 8 || rec[6] != 0xab || rec[7] != 0xcd {
		t.Fatalf("record = %v", rec)
	}
	if rb.Read() != nil {
		t.Fatal("empty ring returned record")
	}
}

func TestRingbufFullDrops(t *testing.T) {
	rb := NewRingBuf("tiny", 1)
	rb.Output([]byte{1})
	if rb.Output([]byte{2}) {
		t.Fatal("full ring accepted record")
	}
	if rb.Dropped != 1 {
		t.Fatalf("dropped = %d", rb.Dropped)
	}
}

// TestRingbufLaggingReaderKeepsOrder: a reader that never quite drains
// the ring (so the arena slides instead of resetting) must still see
// every record once, in order, with its own bytes, and a reader that
// keeps up must not make the arena grow.
func TestRingbufLaggingReaderKeepsOrder(t *testing.T) {
	rb := NewRingBuf("lag", 1<<16)
	next := byte(0)
	check := func() {
		t.Helper()
		rec := rb.Read()
		if len(rec) != 1+int(next%5) || rec[0] != next {
			t.Fatalf("read %v, want %d bytes starting %d", rec, 1+int(next%5), next)
		}
		next++
	}
	for i := 0; i < 250; i++ { // records of 1..5 bytes, value = index
		rec := make([]byte, 1+i%5)
		rec[0] = byte(i)
		rb.Output(rec)
		if i%3 != 0 { // two reads per three writes: a backlog builds
			check()
		}
	}
	if rb.Len() != 84 {
		t.Fatalf("backlog = %d, want 84", rb.Len())
	}
	for rb.Len() > 0 {
		check()
	}
	if rb.Read() != nil || next != 250 {
		t.Fatalf("drained ring returned a record, or lost some: next=%d", next)
	}
	before := cap(rb.data)
	for i := 0; i < 10000; i++ {
		rb.Output([]byte{1, 2, 3})
		rb.Read()
	}
	if cap(rb.data) != before {
		t.Fatalf("arena grew from %d to %d under a reader that keeps up", before, cap(rb.data))
	}
}

func TestCostOrdering(t *testing.T) {
	// Cost must rank: base < +ktime < +ringbuf.
	base := NewAsm("base").Return(XDPTx).MustProgram()
	ts := NewAsm("ts").Call(HelperKtime).Return(XDPTx).MustProgram()
	rbuf := NewRingBuf("r", 64)
	a := NewAsm("tsrb")
	fd := a.WithRing(rbuf)
	tsrb := a.
		Call(HelperKtime).
		StStack(0, R0, 8).
		MovImm(R1, fd).
		MovImm(R2, 0).
		MovImm(R3, 8).
		Call(HelperRingbufOutput).
		Return(XDPTx).
		MustProgram()
	cb := run(t, base, nil).Cost
	ct := run(t, ts, nil).Cost
	cr := run(t, tsrb, nil).Cost
	if !(cb < ct && ct < cr) {
		t.Fatalf("cost ordering broken: base=%v ts=%v tsrb=%v", cb, ct, cr)
	}
	// Ring buffer cost dominates: the gap to TS must exceed TS's gap to base.
	if cr-ct <= ct-cb {
		t.Fatalf("ringbuf cost not dominant: %v vs %v", cr-ct, ct-cb)
	}
}

func TestRunNoiseIsNonNegativeAndVaries(t *testing.T) {
	p := NewAsm("noisy").Return(XDPPass).MustProgram()
	rng := sim.NewRNG(3)
	costs := DefaultCosts
	base := run(t, p, nil).Cost
	varied := false
	for i := 0; i < 100; i++ {
		res, err := p.Run(nil, 0, &costs, rng)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cost < base {
			t.Fatalf("noise made cost negative-ward: %v < %v", res.Cost, base)
		}
		if res.Cost != base {
			varied = true
		}
	}
	if !varied {
		t.Fatal("noise never varied cost")
	}
}

func TestUnverifiedRunPanics(t *testing.T) {
	p := &Program{Name: "raw", Insns: []Insn{{Op: OpExit}}}
	defer func() {
		if recover() == nil {
			t.Fatal("unverified run did not panic")
		}
	}()
	p.Run(nil, 0, nil, nil)
}

func TestInsnString(t *testing.T) {
	cases := []Insn{
		{Op: OpExit},
		{Op: OpCall, Imm: 3},
		{Op: OpJa, Off: 4},
		{Op: OpLdPkt, Dst: R2, Src: R1, Off: 8, Size: 4},
		{Op: OpMovImm, Dst: R0, Imm: 2},
	}
	for _, in := range cases {
		if in.String() == "" {
			t.Fatalf("empty disassembly for %+v", in)
		}
	}
	if OpMovImm.String() != "mov.i" {
		t.Fatalf("op name = %q", OpMovImm)
	}
}

func TestAsmLabelResolution(t *testing.T) {
	p := NewAsm("lbl").
		MovImm(R2, 1).
		JEqImm(R2, 1, "yes").
		Return(XDPDrop).
		Label("yes").
		Return(XDPPass).
		MustProgram()
	if res := run(t, p, nil); res.Verdict != XDPPass {
		t.Fatalf("verdict = %d", res.Verdict)
	}
}

func TestAsmUndefinedLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("undefined label did not panic")
		}
	}()
	NewAsm("bad").Ja("nowhere").Exit().Program()
}

func TestAsmDuplicateLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate label did not panic")
		}
	}()
	NewAsm("bad").Label("x").Label("x")
}

// TestTrapReasons pins the text and PC of every trap a verified program
// can reach; each body below is followed by a return of XDPPass.
func TestTrapReasons(t *testing.T) {
	pkt := []byte{1, 2, 3}
	for _, tc := range []struct {
		name   string
		insns  []Insn
		pc     int
		reason string
	}{
		{"packet read", []Insn{{Op: OpMovImm, Dst: R2, Imm: 1}, {Op: OpLdPkt, Dst: R3, Src: R2, Off: 1, Size: 2}},
			1, "packet read [2,+2) out of bounds (len 3)"},
		{"packet write", []Insn{{Op: OpMovImm, Dst: R2, Imm: -1}, {Op: OpStPkt, Dst: R2, Src: R2, Size: 1}},
			1, "packet write [-1,+1) out of bounds (len 3)"},
		{"ring index", []Insn{{Op: OpMovImm, Dst: R1, Imm: 1}, {Op: OpMovImm, Dst: R2, Imm: 0}, {Op: OpMovImm, Dst: R3, Imm: 8}, {Op: OpCall, Imm: HelperRingbufOutput}},
			3, "ring index 1 out of range"},
		{"ring slice", []Insn{{Op: OpMovImm, Dst: R1, Imm: 0}, {Op: OpMovImm, Dst: R2, Imm: 508}, {Op: OpMovImm, Dst: R3, Imm: 8}, {Op: OpCall, Imm: HelperRingbufOutput}},
			3, "ringbuf output [508,+8) outside stack"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			insns := append(tc.insns, Insn{Op: OpMovImm, Dst: R0, Imm: int64(XDPPass)}, Insn{Op: OpExit})
			p := (&Program{Name: tc.name, Insns: insns, Rings: []*RingBuf{NewRingBuf("r", 1)}}).MustVerify()
			res, err := p.Run(append([]byte(nil), pkt...), 0, nil, nil)
			var tr *Trap
			if !asTrap(err, &tr) || tr.PC != tc.pc || tr.Reason != tc.reason || res.Verdict != XDPAborted {
				t.Fatalf("Run = %+v, %v; want XDPAborted and a trap at pc=%d: %s", res, err, tc.pc, tc.reason)
			}
		})
	}
}

// TestCompiledRunIsAllocationFree pins the perf contract the compiler
// exists for: a run reuses the program's scratch context and allocates
// nothing. The program below exercises ALU, packet loads and stores,
// stack traffic and the Ktime helper — everything but ringbuf output,
// whose per-record copy is the one allocation the VM semantics require.
func TestCompiledRunIsAllocationFree(t *testing.T) {
	p := &Program{
		Name: "alloc-probe",
		Insns: []Insn{
			{Op: OpCall, Imm: HelperKtime},
			{Op: OpStStack, Src: R0, Off: 0, Size: 8},
			{Op: OpMovImm, Dst: R2, Imm: 0},
			{Op: OpLdPkt, Dst: R3, Src: R2, Off: 0, Size: 4},
			{Op: OpAddImm, Dst: R3, Imm: 1},
			{Op: OpStPkt, Dst: R2, Src: R3, Off: 0, Size: 4},
			{Op: OpLdStack, Dst: R4, Off: 0, Size: 8},
			{Op: OpMovImm, Dst: R0, Imm: int64(XDPPass)},
			{Op: OpExit},
		},
	}
	p.MustVerify()
	pkt := bytes.Repeat([]byte{0}, 32)
	costs := DefaultCosts
	costs.RunNoiseSD = 0
	run := func() {
		if _, err := p.Run(pkt, 0, &costs, nil); err != nil {
			t.Fatalf("run: %v", err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(500, run); allocs != 0 {
		t.Fatalf("compiled run allocates %.1f allocs/op; want 0", allocs)
	}
}
