package ebpf

// Differential testing of the compiled form against the interpreter.
// The load-time compiler (compile.go) must be observationally identical
// to Interpret for every verified program: verdict, cost, step count,
// trap PC and reason, mutated packet bytes, map contents and counters,
// and ring contents and counters — including the order of RNG draws
// (Ktime reads accumulated cost; RingbufOutput and OpExit draw noise).
// Three sources of programs drive the comparison: the checked-in fuzz
// corpora for FuzzVerifier (program streams) and FuzzVM (packets against
// the parser program), and seeded random instruction streams.

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"steelnet/internal/sim"
)

// runBoth executes the same program shape twice — once compiled, once
// interpreted — on fresh clones with identical RNG streams, and fails
// the test on any observable divergence. It returns the compiled result
// so callers can make further assertions.
func runBoth(t *testing.T, label string, prog *Program, packet []byte, costs *CostModel, seed uint64) (Result, error) {
	t.Helper()
	pc := prog.CloneFresh()
	pi := prog.CloneFresh()
	if pc.compiled == nil {
		t.Fatalf("%s: clone lost compiled code", label)
	}
	pi.compiled = nil // force the interpreter path

	pktC := append([]byte(nil), packet...)
	pktI := append([]byte(nil), packet...)
	var rngC, rngI *sim.RNG
	if seed != 0 {
		rngC = sim.NewRNG(seed)
		rngI = sim.NewRNG(seed)
	}
	resC, errC := pc.Run(pktC, 12345, costs, rngC)
	resI, errI := pi.Run(pktI, 12345, costs, rngI)

	if resC != resI {
		t.Errorf("%s: result diverged: compiled %+v, interpreter %+v", label, resC, resI)
	}
	switch tc, ti := trapOf(errC), trapOf(errI); {
	case (tc == nil) != (ti == nil):
		t.Errorf("%s: trap disagreement: compiled %v, interpreter %v", label, errC, errI)
	case tc != nil && (tc.PC != ti.PC || tc.Reason != ti.Reason):
		t.Errorf("%s: trap diverged: compiled %v, interpreter %v", label, tc, ti)
	}
	if !bytes.Equal(pktC, pktI) {
		t.Errorf("%s: packet bytes diverged after run", label)
	}
	for i := range pc.Maps {
		mc, mi := pc.Maps[i], pi.Maps[i]
		if mc.Lookups != mi.Lookups || mc.Updates != mi.Updates {
			t.Errorf("%s: map %d counters: compiled lookups=%d updates=%d, interpreter lookups=%d updates=%d",
				label, i, mc.Lookups, mc.Updates, mi.Lookups, mi.Updates)
		}
		if mc.Kind == MapArray {
			for k := range mc.arr {
				if mc.arr[k] != mi.arr[k] {
					t.Errorf("%s: array map %d key %d: compiled %d, interpreter %d", label, i, k, mc.arr[k], mi.arr[k])
				}
			}
		} else {
			if len(mc.hash) != len(mi.hash) {
				t.Errorf("%s: hash map %d size: compiled %d, interpreter %d", label, i, len(mc.hash), len(mi.hash))
			}
			for k, v := range mc.hash {
				if vi, ok := mi.hash[k]; !ok || vi != v {
					t.Errorf("%s: hash map %d key %d: compiled %d, interpreter %d (present=%t)", label, i, k, v, vi, ok)
				}
			}
		}
	}
	for i := range pc.Rings {
		rc, ri := pc.Rings[i], pi.Rings[i]
		if rc.Produced != ri.Produced || rc.Consumed != ri.Consumed || rc.Dropped != ri.Dropped {
			t.Errorf("%s: ring %d counters: compiled p=%d c=%d d=%d, interpreter p=%d c=%d d=%d",
				label, i, rc.Produced, rc.Consumed, rc.Dropped, ri.Produced, ri.Consumed, ri.Dropped)
		}
		if rc.Len() != ri.Len() {
			t.Errorf("%s: ring %d holds %d records compiled, %d interpreted", label, i, rc.Len(), ri.Len())
			continue
		}
		for j := 0; j < rc.Len(); j++ {
			if !bytes.Equal(rc.record(j), ri.record(j)) {
				t.Errorf("%s: ring %d record %d diverged", label, i, j)
			}
		}
	}
	return resC, errC
}

func trapOf(err error) *Trap {
	if t, ok := err.(*Trap); ok {
		return t
	}
	return nil
}

// noiseless returns the cost model variant fuzzing uses: deterministic
// with RNG features on so draw-order bugs still surface when a seed is
// passed to runBoth.
func fullCosts() *CostModel {
	c := DefaultCosts
	return &c
}

// corpusInputs reads the byte arguments of every checked-in corpus file
// for the named fuzz target (go test fuzz v1 format).
func corpusInputs(t *testing.T, target string) [][][]byte {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading corpus %s: %v", dir, err)
	}
	var inputs [][][]byte
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("reading corpus file: %v", err)
		}
		var args [][]byte
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if !strings.HasPrefix(line, "[]byte(") || !strings.HasSuffix(line, ")") {
				continue
			}
			s, err := strconv.Unquote(line[len("[]byte(") : len(line)-1])
			if err != nil {
				t.Fatalf("unquoting corpus line %q: %v", line, err)
			}
			args = append(args, []byte(s))
		}
		inputs = append(inputs, args)
	}
	if len(inputs) == 0 {
		t.Fatalf("corpus %s is empty", dir)
	}
	return inputs
}

// TestCompiledMatchesInterpreterOnVerifierCorpus replays the whole
// FuzzVerifier corpus (arbitrary programs, most of them adversarial)
// plus the seed programs through both execution engines.
func TestCompiledMatchesInterpreterOnVerifierCorpus(t *testing.T) {
	cases := corpusInputs(t, "FuzzVerifier")
	for _, prog := range seedPrograms() {
		cases = append(cases, [][]byte{encodeInsns(prog), {0x02, 0x5e, 0, 0, 0, 1, 0x88, 0x92, 0, 0, 0, 0, 0, 0}})
	}
	ran := 0
	for ci, args := range cases {
		if len(args) < 1 {
			continue
		}
		var packet []byte
		if len(args) > 1 {
			packet = args[1]
		}
		p := &Program{
			Name:  "corpus",
			Insns: decodeInsns(args[0]),
			Maps:  []*Map{NewArrayMap("m0", 4), NewHashMap("m1", 4)},
			Rings: []*RingBuf{NewRingBuf("r0", 4)},
		}
		if err := p.Verify(); err != nil {
			continue // the compiler only sees verified programs
		}
		runBoth(t, fmt.Sprintf("verifier-corpus[%d]", ci), p, packet, fullCosts(), uint64(ci)+1)
		ran++
	}
	if ran == 0 {
		t.Fatal("no corpus program passed the verifier; differential test ran nothing")
	}
}

// TestCompiledMatchesInterpreterOnVMCorpus replays the FuzzVM corpus —
// packets that drive the parser program's bounds arithmetic to its
// integer edges — through both engines.
func TestCompiledMatchesInterpreterOnVMCorpus(t *testing.T) {
	for ci, args := range corpusInputs(t, "FuzzVM") {
		if len(args) < 1 {
			continue
		}
		runBoth(t, fmt.Sprintf("vm-corpus[%d]", ci), fuzzParserProgram(), args[0], fullCosts(), uint64(ci)+1)
	}
}

// randomInsn draws one instruction with operands biased toward validity
// so a useful fraction of random programs verifies.
func randomInsn(r *rand.Rand) Insn {
	sizes := []uint8{1, 2, 4, 8}
	in := Insn{
		Op:   Op(1 + r.Intn(int(numOps)-1)),
		Dst:  Reg(r.Intn(int(R10))), // skip R10: writes there never verify
		Src:  Reg(r.Intn(numRegs)),
		Off:  int32(r.Intn(8)),
		Imm:  int64(r.Intn(256)) - 32,
		Size: sizes[r.Intn(len(sizes))],
	}
	switch in.Op {
	case OpLdStack, OpStStack:
		in.Off = int32(r.Intn(StackSize - 8))
	case OpLshImm, OpRshImm:
		in.Imm = int64(r.Intn(64))
	case OpDivImm:
		in.Imm = int64(1 + r.Intn(100))
	case OpCall:
		in.Imm = int64(r.Intn(int(numHelpers)))
	case OpJa, OpJEqImm, OpJNeImm, OpJGtImm, OpJLtImm, OpJGeImm,
		OpJEqReg, OpJNeReg, OpJGtReg:
		in.Off = int32(1 + r.Intn(4))
	}
	return in
}

// TestCompiledMatchesInterpreterOnRandomPrograms generates seeded random
// instruction streams, keeps the ones the verifier accepts, and runs
// each against several packets through both engines. The generator is
// deterministic (fixed seed) so failures reproduce.
func TestCompiledMatchesInterpreterOnRandomPrograms(t *testing.T) {
	r := rand.New(rand.NewSource(0x5eed))
	packets := [][]byte{
		nil,
		{0x01},
		bytes.Repeat([]byte{0xa5}, 16),
		bytes.Repeat([]byte{0x3c}, 64),
	}
	accepted := 0
	for i := 0; accepted < 200 && i < 40000; i++ {
		n := 2 + r.Intn(24)
		insns := make([]Insn, 0, n+1)
		// Anchor a register setup so early reads often verify.
		insns = append(insns, Insn{Op: OpMovImm, Dst: R0, Imm: int64(r.Intn(5))})
		for j := 0; j < n; j++ {
			insns = append(insns, randomInsn(r))
		}
		insns = append(insns, Insn{Op: OpExit})
		p := &Program{
			Name:  "random",
			Insns: insns,
			Maps:  []*Map{NewArrayMap("m0", 4), NewHashMap("m1", 4)},
			Rings: []*RingBuf{NewRingBuf("r0", 4)},
		}
		if err := p.Verify(); err != nil {
			continue
		}
		accepted++
		for pi, pkt := range packets {
			runBoth(t, fmt.Sprintf("random[%d]/pkt[%d]", i, pi), p, pkt, fullCosts(), uint64(i*7+pi+1))
		}
	}
	if accepted < 50 {
		t.Fatalf("only %d random programs verified; generator too weak for a meaningful diff", accepted)
	}
	t.Logf("diffed %d random programs", accepted)
}

// TestCompiledVariantsMatchInterpreter runs every §3 program shape —
// the six Fig. 4 variants are built in internal/reflection, but their
// helper mix (Ktime, map update, ringbuf output) is replicated here —
// against realistic probe-sized packets with live RNG noise, asserting
// equality of the full observable state including RNG-dependent cost.
func TestCompiledVariantsMatchInterpreter(t *testing.T) {
	progs := append([][]Insn{}, seedPrograms()...)
	for pi, insns := range progs {
		p := &Program{
			Name:  fmt.Sprintf("shape-%d", pi),
			Insns: insns,
			Maps:  []*Map{NewArrayMap("m0", 4), NewHashMap("m1", 4)},
			Rings: []*RingBuf{NewRingBuf("r0", 4)},
		}
		if err := p.Verify(); err != nil {
			continue
		}
		for trial := 0; trial < 16; trial++ {
			pkt := bytes.Repeat([]byte{byte(trial)}, 14+trial*4)
			runBoth(t, fmt.Sprintf("shape[%d]/trial[%d]", pi, trial), p, pkt, fullCosts(), uint64(trial)*3+1)
		}
	}
}

// TestCompiledRunIsAllocationFree pins the perf contract the compiler
// exists for: a compiled run reuses the program's scratch context and
// allocates nothing. The program below exercises ALU, packet loads and
// stores, stack traffic, Ktime and array-map helpers — everything but
// ringbuf output, whose per-record copy is the one allocation the VM
// semantics require.
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
			{Op: OpMovImm, Dst: R1, Imm: 0},
			{Op: OpMovImm, Dst: R2, Imm: 1},
			{Op: OpMovReg, Dst: R3, Src: R0},
			{Op: OpCall, Imm: HelperMapUpdate},
			{Op: OpMovImm, Dst: R1, Imm: 0},
			{Op: OpMovImm, Dst: R2, Imm: 1},
			{Op: OpCall, Imm: HelperMapLookup},
			{Op: OpLdStack, Dst: R4, Off: 0, Size: 8},
			{Op: OpMovImm, Dst: R0, Imm: int64(XDPPass)},
			{Op: OpExit},
		},
		Maps: []*Map{NewArrayMap("m0", 4)},
	}
	p.MustVerify()
	pkt := bytes.Repeat([]byte{0}, 32)
	costs := fullCosts()
	costs.RunNoiseSD = 0
	run := func() {
		if _, err := p.Run(pkt, 0, costs, nil); err != nil {
			t.Fatalf("run: %v", err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(500, run); allocs != 0 {
		t.Fatalf("compiled run allocates %.1f allocs/op; want 0", allocs)
	}
}
