package ebpf

// Differential testing of the VM against an independent reference
// interpreter. The compiled closures of compile.go are the machine's
// only executor; the reference below is deliberately written in a
// different style — table-driven ALU/jump dispatch, loop-assembled
// big-endian memory access, its own map and ring models — so that a
// bug in the lowering or its bounds arithmetic cannot be mirrored by
// construction. runDifferential runs every input source through both
// machines with cost noise on: the seed programs, the committed
// FuzzVerifier and FuzzVM corpora, seeded random programs and the six
// Fig. 4 program shapes. Verdict, cost, step count, trap PC, final
// packet bytes, map contents and counters, ring records and counters,
// and the number of RNG draws must agree. Trap reason texts are pinned
// by vm_test.go.

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"steelnet/internal/frame"
	"steelnet/internal/sim"
)

// --- reference interpreter -------------------------------------------------

var refALUImm = map[Op]func(a, b uint64) uint64{
	OpMovImm: func(a, b uint64) uint64 { return b },
	OpAddImm: func(a, b uint64) uint64 { return a + b },
	OpSubImm: func(a, b uint64) uint64 { return a - b },
	OpMulImm: func(a, b uint64) uint64 { return a * b },
	OpDivImm: func(a, b uint64) uint64 { return a / b }, // imm != 0 per verifier
	OpAndImm: func(a, b uint64) uint64 { return a & b },
	OpOrImm:  func(a, b uint64) uint64 { return a | b },
	OpXorImm: func(a, b uint64) uint64 { return a ^ b },
	OpLshImm: func(a, b uint64) uint64 { return a << (b & 63) },
	OpRshImm: func(a, b uint64) uint64 { return a >> (b & 63) },
	OpNeg:    func(a, _ uint64) uint64 { return -a },
}

var refALUReg = map[Op]func(a, b uint64) uint64{
	OpMovReg: func(a, b uint64) uint64 { return b },
	OpAddReg: func(a, b uint64) uint64 { return a + b },
	OpSubReg: func(a, b uint64) uint64 { return a - b },
	OpMulReg: func(a, b uint64) uint64 { return a * b },
	OpDivReg: func(a, b uint64) uint64 {
		if b == 0 {
			return 0 // BPF: runtime div-by-zero yields 0
		}
		return a / b
	},
	OpAndReg: func(a, b uint64) uint64 { return a & b },
	OpOrReg:  func(a, b uint64) uint64 { return a | b },
	OpXorReg: func(a, b uint64) uint64 { return a ^ b },
}

var refJumpImm = map[Op]func(a, b uint64) bool{
	OpJEqImm: func(a, b uint64) bool { return a == b },
	OpJNeImm: func(a, b uint64) bool { return a != b },
	OpJGtImm: func(a, b uint64) bool { return a > b },
	OpJLtImm: func(a, b uint64) bool { return a < b },
	OpJGeImm: func(a, b uint64) bool { return a >= b },
}

var refJumpReg = map[Op]func(a, b uint64) bool{
	OpJEqReg: func(a, b uint64) bool { return a == b },
	OpJNeReg: func(a, b uint64) bool { return a != b },
	OpJGtReg: func(a, b uint64) bool { return a > b },
}

// refMap / refRing model map and ring-buffer state independently of
// maps.go; counters included so helper traffic accounting is compared.
type refMap struct {
	kind             MapKind
	size             int
	arr              []uint64
	hash             map[uint64]uint64
	lookups, updates uint64
}

type refRing struct {
	capacity                    int
	records                     [][]byte
	produced, consumed, dropped uint64
}

type refEnv struct {
	maps  []*refMap
	rings []*refRing
}

// newRefEnv mirrors the shapes (kind, size, capacity) of freshly
// created real objects; both sides must start from zero state.
func newRefEnv(maps []*Map, rings []*RingBuf) *refEnv {
	env := &refEnv{}
	for _, m := range maps {
		rm := &refMap{kind: m.Kind, size: m.MaxSize}
		if m.Kind == MapArray {
			rm.arr = make([]uint64, m.MaxSize)
		} else {
			rm.hash = make(map[uint64]uint64)
		}
		env.maps = append(env.maps, rm)
	}
	for _, r := range rings {
		env.rings = append(env.rings, &refRing{capacity: r.capacity})
	}
	return env
}

// refLoad reads size big-endian bytes, assembling them in a loop; the
// bound check is phrased without off+size so it cannot wrap.
func refLoad(mem []byte, off int64, size int) (uint64, bool) {
	switch size {
	case 1, 2, 4, 8:
	default:
		return 0, false
	}
	if off < 0 || off > int64(len(mem)) || int64(len(mem))-off < int64(size) {
		return 0, false
	}
	var v uint64
	for i := int64(0); i < int64(size); i++ {
		v = v<<8 | uint64(mem[off+i])
	}
	return v, true
}

func refStore(mem []byte, off int64, size int, v uint64) bool {
	switch size {
	case 1, 2, 4, 8:
	default:
		return false
	}
	if off < 0 || off > int64(len(mem)) || int64(len(mem))-off < int64(size) {
		return false
	}
	for i := int64(size) - 1; i >= 0; i-- {
		mem[off+i] = byte(v)
		v >>= 8
	}
	return true
}

// refRun executes insns over packet (mutated in place) and returns the
// result and the trap PC, -1 for a clean exit. It draws from rng (nil:
// no noise) where the cost model says: Bool(RingbufWakeProb) after each
// ringbuf output, |Norm(0, RunNoiseSD)| at exit.
func refRun(insns []Insn, packet []byte, now sim.Time, c *CostModel, env *refEnv, rng *sim.RNG) (Result, int) {
	var r [numRegs]uint64
	var stack [StackSize]byte
	r[R10] = StackSize
	var cost sim.Duration
	pc, steps := 0, 0
	trap := func() (Result, int) { return Result{Verdict: XDPAborted, Cost: cost, Steps: steps}, pc }
	for {
		if steps >= maxSteps || pc < 0 || pc >= len(insns) {
			return trap()
		}
		in := insns[pc]
		steps++
		if fn, ok := refALUImm[in.Op]; ok {
			r[in.Dst] = fn(r[in.Dst], uint64(in.Imm))
			cost += c.ALU
			pc++
			continue
		}
		if fn, ok := refALUReg[in.Op]; ok {
			r[in.Dst] = fn(r[in.Dst], r[in.Src])
			cost += c.ALU
			pc++
			continue
		}
		if pred, ok := refJumpImm[in.Op]; ok {
			cost += c.ALU
			if pred(r[in.Dst], uint64(in.Imm)) {
				pc += 1 + int(in.Off)
			} else {
				pc++
			}
			continue
		}
		if pred, ok := refJumpReg[in.Op]; ok {
			cost += c.ALU
			if pred(r[in.Dst], r[in.Src]) {
				pc += 1 + int(in.Off)
			} else {
				pc++
			}
			continue
		}
		switch in.Op {
		case OpJa:
			cost += c.ALU
			pc += 1 + int(in.Off)
		case OpPktLen:
			r[in.Dst] = uint64(len(packet))
			cost += c.ALU
			pc++
		case OpLdPkt:
			v, ok := refLoad(packet, int64(r[in.Src])+int64(in.Off), int(in.Size))
			if !ok {
				return trap()
			}
			r[in.Dst] = v
			cost += c.PktMem
			pc++
		case OpStPkt:
			if !refStore(packet, int64(r[in.Dst])+int64(in.Off), int(in.Size), r[in.Src]) {
				return trap()
			}
			cost += c.PktMem
			pc++
		case OpLdStack:
			v, _ := refLoad(stack[:], int64(in.Off), int(in.Size))
			r[in.Dst] = v
			cost += c.StackMem
			pc++
		case OpStStack:
			refStore(stack[:], int64(in.Off), int(in.Size), r[in.Src])
			cost += c.StackMem
			pc++
		case OpCall:
			cost += c.CallBase
			switch in.Imm {
			case HelperKtime:
				r[R0] = uint64(now) + uint64(cost)
				cost += c.Ktime
			case HelperMapLookup, HelperMapUpdate:
				if r[R1] >= uint64(len(env.maps)) {
					return trap()
				}
				m := env.maps[r[R1]]
				if in.Imm == HelperMapLookup {
					m.lookups++
					var v uint64
					if m.kind == MapArray {
						if r[R2] < uint64(m.size) {
							v = m.arr[r[R2]]
						}
					} else {
						v = m.hash[r[R2]]
					}
					r[R0] = v
					cost += c.MapLookup
				} else {
					m.updates++
					r[R0] = 0
					if m.kind == MapArray {
						if r[R2] < uint64(m.size) {
							m.arr[r[R2]] = r[R3]
							r[R0] = 1
						}
					} else {
						_, exists := m.hash[r[R2]]
						if exists || len(m.hash) < m.size {
							m.hash[r[R2]] = r[R3]
							r[R0] = 1
						}
					}
					cost += c.MapUpdate
				}
			case HelperRingbufOutput:
				if r[R1] >= uint64(len(env.rings)) {
					return trap()
				}
				off, n := r[R2], r[R3]
				if n == 0 || off > StackSize || n > StackSize-off {
					return trap()
				}
				rb := env.rings[r[R1]]
				if len(rb.records) < rb.capacity {
					rb.records = append(rb.records, append([]byte(nil), stack[off:off+n]...))
					rb.produced++
					r[R0] = 1
				} else {
					rb.dropped++
					r[R0] = 0
				}
				cost += c.RingbufOutput
				if rng != nil && c.RingbufWakeProb > 0 && rng.Bool(c.RingbufWakeProb) {
					cost += c.RingbufWakeCost
				}
			default:
				return trap()
			}
			pc++
		case OpExit:
			if rng != nil && c.RunNoiseSD > 0 {
				cost += sim.Duration(math.Abs(rng.Norm(0, float64(c.RunNoiseSD))))
			}
			return Result{Verdict: r[R0], Cost: cost, Steps: steps}, -1
		default:
			return trap()
		}
	}
}

// --- differential harness --------------------------------------------------

// runDifferential runs packets one after another through p and through
// the reference, each side drawing from its own RNG seeded with seed,
// and fails on the first observable divergence. p must be verified and
// hold fresh zero-state maps and rings; map and ring state carries over
// from packet to packet on both sides.
func runDifferential(t *testing.T, p *Program, seed uint64, packets ...[]byte) {
	t.Helper()
	costs := DefaultCosts       // noise on: both draw sites are live
	const now = sim.Time(12345) // nonzero: exercises Ktime = now + cost so far
	env := newRefEnv(p.Maps, p.Rings)
	rngVM, rngRef := sim.NewRNG(seed), sim.NewRNG(seed)
	for i, packet := range packets {
		pktVM := append([]byte(nil), packet...)
		pktRef := append([]byte(nil), packet...)
		got, err := p.Run(pktVM, now, &costs, rngVM)
		gotPC := -1
		if err != nil {
			tr, ok := err.(*Trap)
			if !ok {
				t.Fatalf("packet %d: VM returned non-trap error: %v", i, err)
			}
			gotPC = tr.PC
		}
		want, wantPC := refRun(p.Insns, pktRef, now, &costs, env, rngRef)
		if got != want || gotPC != wantPC {
			t.Fatalf("packet %d: VM %+v trap pc %d, reference %+v trap pc %d", i, got, gotPC, want, wantPC)
		}
		if !bytes.Equal(pktVM, pktRef) {
			t.Fatalf("packet %d: final bytes diverged:\nVM:  %x\nref: %x", i, pktVM, pktRef)
		}
		if rngVM.Uint64() != rngRef.Uint64() {
			t.Fatalf("packet %d: the two machines drew a different number of times from the RNG", i)
		}
		assertSameState(t, i, p, env)
	}
}

func assertSameState(t *testing.T, packet int, p *Program, env *refEnv) {
	t.Helper()
	for i, m := range p.Maps {
		rm := env.maps[i]
		if m.Lookups != rm.lookups || m.Updates != rm.updates {
			t.Fatalf("packet %d: map %d counters: VM lookups=%d updates=%d, reference lookups=%d updates=%d",
				packet, i, m.Lookups, m.Updates, rm.lookups, rm.updates)
		}
		if m.Kind == MapArray {
			for k, v := range m.arr {
				if rm.arr[k] != v {
					t.Fatalf("packet %d: array map %d key %d: VM %d, reference %d", packet, i, k, v, rm.arr[k])
				}
			}
			continue
		}
		if len(m.hash) != len(rm.hash) {
			t.Fatalf("packet %d: hash map %d size: VM %d, reference %d", packet, i, len(m.hash), len(rm.hash))
		}
		for k, v := range m.hash {
			if rv, ok := rm.hash[k]; !ok || rv != v {
				t.Fatalf("packet %d: hash map %d key %d: VM %d, reference %d (present=%v)", packet, i, k, v, rv, ok)
			}
		}
	}
	for i, rb := range p.Rings {
		rr := env.rings[i]
		if rb.Produced != rr.produced || rb.Dropped != rr.dropped || rb.Consumed != 0 {
			t.Fatalf("packet %d: ring %d counters: VM produced=%d dropped=%d consumed=%d, reference produced=%d dropped=%d",
				packet, i, rb.Produced, rb.Dropped, rb.Consumed, rr.produced, rr.dropped)
		}
		if rb.Len() != len(rr.records) {
			t.Fatalf("packet %d: ring %d record count: VM %d, reference %d", packet, i, rb.Len(), len(rr.records))
		}
		for j, want := range rr.records {
			if got := rb.record(j); !bytes.Equal(got, want) {
				t.Fatalf("packet %d: ring %d record %d: VM %x, reference %x", packet, i, j, got, want)
			}
		}
	}
}

// verifierFuzzEnv builds the same program shape FuzzVerifier uses, with
// fresh maps and rings per invocation.
func verifierFuzzEnv(insns []Insn) *Program {
	return &Program{
		Name:  "diff",
		Insns: insns,
		Maps:  []*Map{NewArrayMap("m0", 4), NewHashMap("m1", 4)},
		Rings: []*RingBuf{NewRingBuf("r0", 4)},
	}
}

// --- corpus loading --------------------------------------------------------

// loadFuzzCorpus parses the Go fuzzing corpus files of target: a
// "go test fuzz v1" header followed by one []byte("...") line per fuzz
// argument. Returns file name → decoded argument list.
func loadFuzzCorpus(t *testing.T, target string, nargs int) map[string][][]byte {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading corpus dir: %v", err)
	}
	entries := make(map[string][][]byte)
	for _, f := range files {
		if f.IsDir() {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
		if len(lines) == 0 || lines[0] != "go test fuzz v1" {
			t.Fatalf("%s: not a go fuzz corpus file", f.Name())
		}
		var args [][]byte
		for _, line := range lines[1:] {
			if line == "" {
				continue
			}
			if !strings.HasPrefix(line, "[]byte(") || !strings.HasSuffix(line, ")") {
				t.Fatalf("%s: unexpected corpus line %q", f.Name(), line)
			}
			s, err := strconv.Unquote(line[len("[]byte(") : len(line)-1])
			if err != nil {
				t.Fatalf("%s: unquoting %q: %v", f.Name(), line, err)
			}
			args = append(args, []byte(s))
		}
		if len(args) != nargs {
			t.Fatalf("%s: %d fuzz args, want %d", f.Name(), len(args), nargs)
		}
		entries[f.Name()] = args
	}
	if len(entries) == 0 {
		t.Fatalf("no corpus files under %s", dir)
	}
	return entries
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// --- input sources ---------------------------------------------------------

// TestDifferentialSeeds runs every seed program over a spread of
// packets through both machines.
func TestDifferentialSeeds(t *testing.T) {
	long := make([]byte, 64)
	for i := range long {
		long[i] = byte(i * 7)
	}
	packets := [][]byte{
		nil,
		{0x01},
		{0x02, 0x5e, 0, 0, 0, 1, 0x88, 0x92, 0, 0, 0, 0, 0, 0},
		long,
	}
	accepted := 0
	for pi, insns := range seedPrograms() {
		for qi, pkt := range packets {
			p := verifierFuzzEnv(insns)
			if p.Verify() != nil {
				continue // differential testing covers accepted programs only
			}
			accepted++
			t.Run(strconv.Itoa(pi)+"/"+strconv.Itoa(qi), func(t *testing.T) {
				runDifferential(t, p, uint64(pi*len(packets)+qi+1), pkt)
			})
		}
	}
	if accepted == 0 {
		t.Fatal("no seed program passed the verifier")
	}
}

// TestDifferentialVerifierCorpus replays the committed FuzzVerifier
// corpus: each entry is a (program, packet) pair; accepted programs
// must behave identically in both machines.
func TestDifferentialVerifierCorpus(t *testing.T) {
	entries := loadFuzzCorpus(t, "FuzzVerifier", 2)
	accepted := 0
	for i, name := range sortedKeys(entries) {
		args := entries[name]
		p := verifierFuzzEnv(decodeInsns(args[0]))
		if p.Verify() != nil {
			continue
		}
		accepted++
		t.Run(name, func(t *testing.T) {
			runDifferential(t, p, uint64(i+1), args[1])
		})
	}
	if accepted == 0 {
		t.Fatal("no corpus program passed the verifier")
	}
	t.Logf("%d/%d corpus programs accepted by the verifier", accepted, len(entries))
}

// TestDifferentialVMCorpus replays the committed FuzzVM corpus (plus
// the FuzzVM seed packets) against the fixed data-dependent parser
// program, which steers every bounds check in the VM from packet bytes.
func TestDifferentialVMCorpus(t *testing.T) {
	be := func(hi, lo uint64) []byte {
		b := make([]byte, 32)
		for i := 7; i >= 0; i-- {
			b[i] = byte(hi)
			b[8+i] = byte(lo)
			hi >>= 8
			lo >>= 8
		}
		return b
	}
	packets := map[string][]byte{
		"seed-0-8":     be(0, 8),
		"seed-16-16":   be(16, 16),
		"seed-sign":    be(1<<63, 1),
		"seed-wrap":    be(0xffffffffffffffff, 2),
		"seed-maxint":  be(0x7fffffffffffffff, 0),
		"seed-stack":   be(uint64(StackSize), uint64(StackSize)),
		"seed-tiny":    {0x01},
		"seed-nil-pkt": nil,
	}
	for name, args := range loadFuzzCorpus(t, "FuzzVM", 1) {
		packets[name] = args[0]
	}
	for i, name := range sortedKeys(packets) {
		pkt := packets[name]
		t.Run(name, func(t *testing.T) {
			runDifferential(t, fuzzParserProgram(), uint64(i+1), pkt)
		})
	}
}

// usedClone runs p once over each packet, so p's maps and rings hold
// state, and returns p.CloneFresh(). The clone shares p's compiled code,
// as every reflection job does, and must start from zero state: a
// compiled step still bound to p's maps or rings diverges from the
// reference, which starts empty.
func usedClone(t *testing.T, p *Program, packets ...[]byte) *Program {
	t.Helper()
	costs := DefaultCosts
	for _, pkt := range packets {
		p.Run(append([]byte(nil), pkt...), 0, &costs, nil) // traps are fine here
	}
	c := p.CloneFresh()
	if c.compiled == nil {
		t.Fatal("clone lost the compiled code")
	}
	return c
}

// TestCompiledMatchesInterpreterOnVerifierCorpus runs every FuzzVerifier
// corpus program the verifier accepts, and every seed program, on a used
// clone over its packet six times in a row. Six runs outgrow the
// four-slot ring and hash map, so drops and evictions happen on state
// the clone built itself.
func TestCompiledMatchesInterpreterOnVerifierCorpus(t *testing.T) {
	entries := loadFuzzCorpus(t, "FuzzVerifier", 2)
	for i, insns := range seedPrograms() {
		entries["seed-"+strconv.Itoa(i)] = [][]byte{encodeInsns(insns), {0x02, 0x5e, 0, 0, 0, 1, 0x88, 0x92, 0, 0, 0, 0, 0, 0}}
	}
	accepted := 0
	for i, name := range sortedKeys(entries) {
		args := entries[name]
		p := verifierFuzzEnv(decodeInsns(args[0]))
		if p.Verify() != nil {
			continue
		}
		accepted++
		t.Run(name, func(t *testing.T) {
			pkt := args[1]
			runDifferential(t, usedClone(t, p, pkt), uint64(i+1), pkt, pkt, pkt, pkt, pkt, pkt)
		})
	}
	if accepted == 0 {
		t.Fatal("no corpus or seed program passed the verifier")
	}
}

// TestCompiledMatchesInterpreterOnVMCorpus runs the FuzzVM corpus three
// times as one packet sequence through a used clone of the parser
// program, each corpus packet followed by one whose header asks for an
// 8-byte ring record at stack offset 0. The clone's eight-slot ring
// carries over from packet to packet, fills, and drops the last records.
func TestCompiledMatchesInterpreterOnVMCorpus(t *testing.T) {
	record := make([]byte, 32)
	record[15] = 8 // big-endian length field at bytes 8..15
	entries := loadFuzzCorpus(t, "FuzzVM", 1)
	var packets [][]byte
	for range 3 {
		for _, name := range sortedKeys(entries) {
			packets = append(packets, entries[name][0], record)
		}
	}
	p := usedClone(t, fuzzParserProgram(), packets...)
	runDifferential(t, p, 1, packets...)
	if p.Rings[0].Dropped == 0 {
		t.Fatalf("the ring never filled: produced %d, dropped 0", p.Rings[0].Produced)
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

// TestDifferentialRandomPrograms generates seeded random instruction
// streams, keeps the first 200 the verifier accepts, and runs each over
// four packets in a row through both machines. The generator's seed is
// fixed, so a failure reproduces.
func TestDifferentialRandomPrograms(t *testing.T) {
	const want = 200
	r := rand.New(rand.NewSource(0x5eed))
	packets := [][]byte{nil, {0x01}, bytes.Repeat([]byte{0xa5}, 16), bytes.Repeat([]byte{0x3c}, 64)}
	accepted := 0
	for i := 0; accepted < want && i < 40000; i++ {
		n := 2 + r.Intn(24)
		// Anchor a register setup so early reads often verify.
		insns := []Insn{{Op: OpMovImm, Dst: R0, Imm: int64(r.Intn(5))}}
		for range n {
			insns = append(insns, randomInsn(r))
		}
		p := verifierFuzzEnv(append(insns, Insn{Op: OpExit}))
		if p.Verify() != nil {
			continue
		}
		accepted++
		t.Run(strconv.Itoa(i), func(t *testing.T) {
			runDifferential(t, p, uint64(i+1), packets...)
		})
	}
	if accepted < want {
		t.Fatalf("only %d of %d random programs verified; the generator is too weak", accepted, want)
	}
}

// fig4Shapes rebuilds the six Fig. 4 programs of internal/reflection
// (which imports this package, so this test cannot import it) with the
// same instructions: pass anything but a probe, swap the MACs, run the
// variant's helper mix, transmit.
func fig4Shapes() map[string]*Program {
	build := func(name string, ring bool, body func(a *Asm, fd int64)) *Program {
		a := NewAsm(name)
		var fd int64
		if ring {
			fd = a.WithRing(NewRingBuf(name, 1<<16))
		}
		a.MovImm(R1, 0).
			LdPkt(R2, R1, 12, 2).
			JNeImm(R2, int64(frame.TypeBenchEcho), "pass").
			LdPkt(R2, R1, 0, 4).
			LdPkt(R3, R1, 4, 2).
			LdPkt(R4, R1, 6, 4).
			LdPkt(R5, R1, 10, 2).
			StPkt(R1, 0, R4, 4).
			StPkt(R1, 4, R5, 2).
			StPkt(R1, 6, R2, 4).
			StPkt(R1, 10, R3, 2)
		body(a, fd)
		return a.Return(XDPTx).Label("pass").Return(XDPPass).MustProgram()
	}
	ts1, _ := frame.ProbeTimestampOffsets()
	emit := func(a *Asm, fd int64) {
		a.StStack(0, R0, 8).MovImm(R1, fd).MovImm(R2, 0).MovImm(R3, 8).Call(HelperRingbufOutput)
	}
	return map[string]*Program{
		"Base": build("Base", false, func(*Asm, int64) {}),
		"TS":   build("TS", false, func(a *Asm, _ int64) { a.Call(HelperKtime).StStack(0, R0, 8) }),
		"TS-TS": build("TS-TS", false, func(a *Asm, _ int64) {
			a.Call(HelperKtime).StStack(0, R0, 8).Call(HelperKtime).StStack(8, R0, 8)
		}),
		"TS-RB": build("TS-RB", true, func(a *Asm, fd int64) { emit(a.Call(HelperKtime), fd) }),
		"TS-OW": build("TS-OW", false, func(a *Asm, _ int64) {
			a.Call(HelperKtime).MovImm(R6, 0).StPkt(R6, int32(14+ts1), R0, 8)
		}),
		"TS-D-RB": build("TS-D-RB", true, func(a *Asm, fd int64) {
			emit(a.Call(HelperKtime).MovReg(R7, R0).Call(HelperKtime).SubReg(R0, R7), fd)
		}),
	}
}

// TestDifferentialVariants runs each Fig. 4 shape over sixteen wire
// frames in a row, with noise on: probes of growing payload (the
// shorter ones make TS-OW's store trap), a non-probe frame every fourth
// trial, and one frame cut short of its EtherType.
func TestDifferentialVariants(t *testing.T) {
	var packets [][]byte
	for trial := range 16 {
		f := frame.Frame{Dst: frame.NewMAC(2), Src: frame.NewMAC(1), Type: frame.TypeBenchEcho, Payload: make([]byte, 4*trial)}
		if trial%4 == 3 {
			f.Type = frame.TypeIPv4
		}
		if frame.MarshalProbeInto(frame.Probe{Seq: uint32(trial), FlowID: 7, TS1: 1}, f.Payload) != nil {
			for i := range f.Payload {
				f.Payload[i] = byte(trial + i)
			}
		}
		pkt := f.Marshal()
		if trial == 1 {
			pkt = pkt[:13]
		}
		packets = append(packets, pkt)
	}
	shapes := fig4Shapes()
	for i, name := range sortedKeys(shapes) {
		t.Run(name, func(t *testing.T) {
			runDifferential(t, shapes[name], uint64(i)*3+1, packets...)
		})
	}
}
