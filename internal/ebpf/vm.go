package ebpf

import (
	"encoding/binary"
	"fmt"

	"steelnet/internal/sim"
)

// XDP verdicts, numbered like the kernel's.
const (
	XDPAborted  uint64 = 0
	XDPDrop     uint64 = 1
	XDPPass     uint64 = 2
	XDPTx       uint64 = 3
	XDPRedirect uint64 = 4
)

// Helper IDs callable with OpCall.
const (
	// HelperKtime returns the current time in ns in R0.
	HelperKtime int64 = iota
	// HelperMapLookup reads Maps[R1][R2] into R0 (0 on miss).
	HelperMapLookup
	// HelperMapUpdate sets Maps[R1][R2] = R3; R0 = 1 on success.
	HelperMapUpdate
	// HelperRingbufOutput emits stack[R2 : R2+R3] to Rings[R1]; R0 = 1
	// on success, 0 when the ring is full.
	HelperRingbufOutput
	numHelpers
)

// helperArgs lists the argument registers each helper consumes; the
// verifier requires them to be initialized at the call site.
var helperArgs = map[int64][]Reg{
	HelperKtime:         nil,
	HelperMapLookup:     {R1, R2},
	HelperMapUpdate:     {R1, R2, R3},
	HelperRingbufOutput: {R1, R2, R3},
}

// StackSize is the per-invocation stack frame, as in the kernel.
const StackSize = 512

// CostModel assigns virtual execution time to instructions and helpers.
// The defaults are calibrated so the reflection harness lands in Fig. 4's
// bands; see internal/reflect.
type CostModel struct {
	ALU      sim.Duration // mov/alu/jump
	PktMem   sim.Duration // packet load/store
	StackMem sim.Duration // stack load/store
	CallBase sim.Duration // helper dispatch overhead

	Ktime     sim.Duration
	MapLookup sim.Duration
	MapUpdate sim.Duration
	// RingbufOutput is the base cost of reserving, copying and
	// committing a ring-buffer record; RingbufWakeProb/RingbufWakeCost
	// model the occasional consumer-wakeup path that makes ring-buffer
	// variants visibly slower and more jittery in Fig. 4.
	RingbufOutput   sim.Duration
	RingbufWakeProb float64
	RingbufWakeCost sim.Duration

	// RunNoiseSD is per-invocation execution noise (cache and branch
	// variation), applied once per run.
	RunNoiseSD sim.Duration
}

// DefaultCosts is the calibrated model.
var DefaultCosts = CostModel{
	ALU:             2 * sim.Nanosecond,
	PktMem:          4 * sim.Nanosecond,
	StackMem:        3 * sim.Nanosecond,
	CallBase:        20 * sim.Nanosecond,
	Ktime:           70 * sim.Nanosecond,
	MapLookup:       45 * sim.Nanosecond,
	MapUpdate:       60 * sim.Nanosecond,
	RingbufOutput:   1400 * sim.Nanosecond,
	RingbufWakeProb: 0.04,
	RingbufWakeCost: 900 * sim.Nanosecond,
	RunNoiseSD:      9 * sim.Nanosecond,
}

// Program is a verified-or-not eBPF program plus the objects it may
// reference from helpers.
type Program struct {
	Name  string
	Insns []Insn
	Maps  []*Map
	Rings []*RingBuf

	verified bool
	compiled []compiledStep // built by Verify; what Run executes
	scratch  vmCtx          // per-program machine state, reset each run
}

// Result reports one program invocation.
type Result struct {
	Verdict uint64
	Cost    sim.Duration
	Steps   int
}

// Trap is a runtime fault (out-of-bounds packet access, bad helper
// argument). A trapped program yields XDPAborted, as in the kernel.
type Trap struct {
	PC     int
	Reason string
}

func (t *Trap) Error() string { return fmt.Sprintf("ebpf: trap at pc=%d: %s", t.PC, t.Reason) }

// maxSteps is a defense-in-depth execution budget; the verifier's
// forward-jump rule already guarantees termination well below it.
const maxSteps = 1 << 16

// Run executes the program over packet (which OpStPkt mutates in place)
// at virtual time now, charging costs per the model and drawing noise
// from rng (which may be nil for fully deterministic cost). Unverified
// programs panic: the kernel will not attach them either. Verify
// compiled the program (see compile.go); Run drives that compiled form:
// budget check, pc bounds check, step count, execute.
func (p *Program) Run(packet []byte, now sim.Time, costs *CostModel, rng *sim.RNG) (Result, error) {
	if !p.verified {
		panic(fmt.Sprintf("ebpf: program %q not verified", p.Name))
	}
	if costs == nil {
		costs = &DefaultCosts
	}
	m := &p.scratch
	*m = vmCtx{packet: packet, now: now, costs: costs, rng: rng, prog: p}
	m.regs[R1] = 0 // packet base: offsets are absolute into packet
	m.regs[R10] = StackSize
	code := p.compiled
	pc := 0
	steps := 0
	for {
		if steps >= maxSteps {
			return Result{Verdict: XDPAborted, Cost: m.cost, Steps: steps}, &Trap{PC: pc, Reason: "step budget exhausted"}
		}
		if pc < 0 || pc >= len(code) {
			return Result{Verdict: XDPAborted, Cost: m.cost, Steps: steps}, &Trap{PC: pc, Reason: "fell off program end"}
		}
		steps++
		pc = code[pc](m)
		if pc < 0 {
			if pc == pcExit {
				return Result{Verdict: m.regs[R0], Cost: m.cost, Steps: steps}, nil
			}
			t := m.trap
			m.trap = nil
			return Result{Verdict: XDPAborted, Cost: m.cost, Steps: steps}, t
		}
	}
}

// storeBE writes the low size bytes of v big-endian at mem[off:]. off
// comes from untrusted register arithmetic: it is bounded without
// computing off+size, which can wrap for off near MaxInt64.
func storeBE(mem []byte, off int64, size int, v uint64) bool {
	if off < 0 || size < 1 || off > int64(len(mem))-int64(size) {
		return false
	}
	switch size {
	case 1:
		mem[off] = byte(v)
	case 2:
		binary.BigEndian.PutUint16(mem[off:], uint16(v))
	case 4:
		binary.BigEndian.PutUint32(mem[off:], uint32(v))
	case 8:
		binary.BigEndian.PutUint64(mem[off:], v)
	default:
		return false
	}
	return true
}
