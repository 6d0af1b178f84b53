package ebpf

import (
	"encoding/binary"
	"testing"
)

// insnWire is the fixed record width the fuzzers use to decode raw bytes
// into instructions: Op(1) Dst(1) Src(1) Size(1) Off(int32 LE) Imm(int64 LE).
// A fixed width keeps the mapping bijective, so the mutator's byte flips
// translate to local instruction edits instead of reframing the whole
// program.
const insnWire = 16

func decodeInsns(data []byte) []Insn {
	n := len(data) / insnWire
	if n > MaxInsns+1 {
		// One past the limit still exercises the too-large rejection;
		// beyond that is wasted work.
		n = MaxInsns + 1
	}
	insns := make([]Insn, n)
	for i := range insns {
		b := data[i*insnWire : (i+1)*insnWire]
		insns[i] = Insn{
			Op:   Op(b[0]),
			Dst:  Reg(b[1]),
			Src:  Reg(b[2]),
			Size: b[3],
			Off:  int32(binary.LittleEndian.Uint32(b[4:8])),
			Imm:  int64(binary.LittleEndian.Uint64(b[8:16])),
		}
	}
	return insns
}

func encodeInsns(insns []Insn) []byte {
	data := make([]byte, len(insns)*insnWire)
	for i, in := range insns {
		b := data[i*insnWire:]
		b[0] = byte(in.Op)
		b[1] = byte(in.Dst)
		b[2] = byte(in.Src)
		b[3] = in.Size
		binary.LittleEndian.PutUint32(b[4:8], uint32(in.Off))
		binary.LittleEndian.PutUint64(b[8:16], uint64(in.Imm))
	}
	return data
}

func TestInsnWireRoundTrip(t *testing.T) {
	insns := []Insn{
		{Op: OpMovImm, Dst: R3, Imm: -1},
		{Op: OpLdPkt, Dst: R2, Src: R3, Off: -7, Size: 8},
		{Op: OpJEqImm, Dst: R2, Off: 1, Imm: 1 << 40},
		{Op: OpExit},
	}
	got := decodeInsns(encodeInsns(insns))
	if len(got) != len(insns) {
		t.Fatalf("round trip length %d, want %d", len(got), len(insns))
	}
	for i := range insns {
		if got[i] != insns[i] {
			t.Fatalf("insn %d round trip: got %+v want %+v", i, got[i], insns[i])
		}
	}
}

// seedPrograms returns the instruction streams the asm-based unit tests
// exercise, re-expressed as raw Insn slices so the fuzzers start from
// programs the verifier accepts (mutations then explore the boundary of
// acceptance from both sides).
func seedPrograms() [][]Insn {
	return [][]Insn{
		// return XDPPass
		{{Op: OpMovImm, Dst: R0, Imm: int64(XDPPass)}, {Op: OpExit}},
		// ALU chain from TestALUArithmetic
		{
			{Op: OpMovImm, Dst: R2, Imm: 10},
			{Op: OpAddImm, Dst: R2, Imm: 5},
			{Op: OpMovImm, Dst: R3, Imm: 3},
			{Op: OpMulImm, Dst: R3, Imm: 7},
			{Op: OpAddReg, Dst: R2, Src: R3},
			{Op: OpSubImm, Dst: R2, Imm: 6},
			{Op: OpMovReg, Dst: R0, Src: R2},
			{Op: OpExit},
		},
		// packet read/double/write from TestPacketLoadStore
		{
			{Op: OpMovImm, Dst: R2, Imm: 0},
			{Op: OpLdPkt, Dst: R3, Src: R2, Off: 2, Size: 1},
			{Op: OpMulImm, Dst: R3, Imm: 2},
			{Op: OpStPkt, Dst: R2, Src: R3, Off: 0, Size: 1},
			{Op: OpMovImm, Dst: R0, Imm: int64(XDPTx)},
			{Op: OpExit},
		},
		// stack round trip
		{
			{Op: OpMovImm, Dst: R2, Imm: 0xdead},
			{Op: OpStStack, Src: R2, Off: 16, Size: 8},
			{Op: OpLdStack, Dst: R0, Off: 16, Size: 8},
			{Op: OpExit},
		},
		// length branch from TestPktLenAndBranch
		{
			{Op: OpPktLen, Dst: R2},
			{Op: OpJLtImm, Dst: R2, Imm: 10, Off: 2},
			{Op: OpMovImm, Dst: R0, Imm: int64(XDPPass)},
			{Op: OpExit},
			{Op: OpMovImm, Dst: R0, Imm: int64(XDPDrop)},
			{Op: OpExit},
		},
		// map update + lookup against fd 0
		{
			{Op: OpMovImm, Dst: R1, Imm: 0},
			{Op: OpMovImm, Dst: R2, Imm: 2},
			{Op: OpMovImm, Dst: R3, Imm: 77},
			{Op: OpCall, Imm: int64(HelperMapUpdate)},
			{Op: OpMovImm, Dst: R1, Imm: 0},
			{Op: OpMovImm, Dst: R2, Imm: 2},
			{Op: OpCall, Imm: int64(HelperMapLookup)},
			{Op: OpExit},
		},
		// ringbuf emit from stack
		{
			{Op: OpMovImm, Dst: R4, Imm: 0xabcd},
			{Op: OpStStack, Src: R4, Off: 0, Size: 8},
			{Op: OpMovImm, Dst: R1, Imm: 0},
			{Op: OpMovImm, Dst: R2, Imm: 0},
			{Op: OpMovImm, Dst: R3, Imm: 8},
			{Op: OpCall, Imm: int64(HelperRingbufOutput)},
			{Op: OpExit},
		},
		// div-by-zero semantics
		{
			{Op: OpMovImm, Dst: R2, Imm: 100},
			{Op: OpMovImm, Dst: R3, Imm: 0},
			{Op: OpDivReg, Dst: R2, Src: R3},
			{Op: OpMovReg, Dst: R0, Src: R2},
			{Op: OpExit},
		},
		// verifier-rejected: read of uninitialized register
		{{Op: OpMovReg, Dst: R0, Src: R5}, {Op: OpExit}},
		// verifier-rejected: backward jump
		{{Op: OpMovImm, Dst: R0, Imm: 0}, {Op: OpJa, Off: -1}, {Op: OpExit}},
	}
}

// FuzzVerifier feeds arbitrary instruction streams through Verify and, on
// acceptance, through Run. The contract under test: the verifier never
// panics on any input, and no program it accepts can panic or diverge in
// the VM — runtime traps are the only permitted failure mode.
func FuzzVerifier(f *testing.F) {
	for _, prog := range seedPrograms() {
		f.Add(encodeInsns(prog), []byte{0x02, 0x5e, 0, 0, 0, 1, 0x88, 0x92, 0, 0, 0, 0, 0, 0})
	}
	f.Fuzz(func(t *testing.T, progData, packet []byte) {
		p := &Program{
			Name:  "fuzz",
			Insns: decodeInsns(progData),
			Maps:  []*Map{NewArrayMap("m0", 4), NewHashMap("m1", 4)},
			Rings: []*RingBuf{NewRingBuf("r0", 4)},
		}
		if err := p.Verify(); err != nil {
			return // rejection is a correct outcome; only panics are bugs
		}
		costs := DefaultCosts
		costs.RunNoiseSD = 0
		costs.RingbufWakeProb = 0
		res, err := p.Run(packet, 0, &costs, nil)
		if err != nil {
			if _, ok := err.(*Trap); !ok {
				t.Fatalf("non-trap run error: %v", err)
			}
			if res.Verdict != XDPAborted {
				t.Fatalf("trapped run returned verdict %d, want XDPAborted", res.Verdict)
			}
		}
		if res.Steps > maxSteps {
			t.Fatalf("run took %d steps, budget %d", res.Steps, maxSteps)
		}
	})
}

// fuzzParserProgram is a verified program whose memory offsets are
// data-dependent: it reads an offset and a length out of the packet and
// uses them for a packet load, a stack store, and a ringbuf emit. This is
// the shape that found the wrap-around bounds bugs in the packet load and
// store checks and in HelperRingbufOutput — offsets near MaxInt64 passed
// the additive checks.
func fuzzParserProgram() *Program {
	p := &Program{
		Name: "fuzz-parser",
		Insns: []Insn{
			{Op: OpPktLen, Dst: R6},
			{Op: OpJGtImm, Dst: R6, Imm: 15, Off: 2}, // need 16 bytes of header
			{Op: OpMovImm, Dst: R0, Imm: int64(XDPDrop)},
			{Op: OpExit},
			{Op: OpMovImm, Dst: R2, Imm: 0},
			{Op: OpLdPkt, Dst: R3, Src: R2, Off: 0, Size: 8}, // attacker-chosen offset
			{Op: OpLdPkt, Dst: R4, Src: R2, Off: 8, Size: 8}, // attacker-chosen length
			{Op: OpLdPkt, Dst: R5, Src: R3, Off: 0, Size: 1}, // data-dependent load
			{Op: OpStStack, Src: R5, Off: 0, Size: 8},
			{Op: OpMovImm, Dst: R1, Imm: 0},
			{Op: OpMovReg, Dst: R2, Src: R3}, // stack offset from packet
			{Op: OpMovReg, Dst: R3, Src: R4}, // length from packet
			{Op: OpCall, Imm: int64(HelperRingbufOutput)},
			{Op: OpMovImm, Dst: R0, Imm: int64(XDPPass)},
			{Op: OpExit},
		},
		Rings: []*RingBuf{NewRingBuf("r0", 8)},
	}
	return p.MustVerify()
}

// FuzzVM holds the program fixed and fuzzes the packet — the complement
// of FuzzVerifier. The packet's first 16 bytes steer every bounds check
// in the VM (packet loads, stack stores, ringbuf slicing), so the mutator
// drives the arithmetic to its integer edges.
func FuzzVM(f *testing.F) {
	le := func(hi, lo uint64) []byte {
		b := make([]byte, 32)
		binary.BigEndian.PutUint64(b[0:8], hi)
		binary.BigEndian.PutUint64(b[8:16], lo)
		return b
	}
	f.Add(le(0, 8))
	f.Add(le(16, 16))                // read/emit the tail
	f.Add(le(1<<63, 1))              // offset sign edge
	f.Add(le(0xffffffffffffffff, 2)) // off+n wraps
	f.Add(le(0x7fffffffffffffff, 0)) // off near MaxInt64, n=0
	f.Add(le(uint64(StackSize), uint64(StackSize)))
	f.Fuzz(func(t *testing.T, packet []byte) {
		p := fuzzParserProgram()
		costs := DefaultCosts
		costs.RunNoiseSD = 0
		costs.RingbufWakeProb = 0
		res, err := p.Run(packet, 0, &costs, nil)
		if err != nil {
			if _, ok := err.(*Trap); !ok {
				t.Fatalf("non-trap run error: %v", err)
			}
			if res.Verdict != XDPAborted {
				t.Fatalf("trapped run returned verdict %d, want XDPAborted", res.Verdict)
			}
			return
		}
		if v := res.Verdict; v != XDPPass && v != XDPDrop {
			t.Fatalf("clean run returned unexpected verdict %d", v)
		}
	})
}
