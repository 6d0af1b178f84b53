// Package reflection implements Traffic Reflection (§3, Fig. 3), the
// paper's measurement method for exposing hidden timing drift in
// eBPF/XDP packet processing. A sender emits cyclic probe frames; a
// reflector host runs one of six XDP programs that bounce each probe
// back to the wire; a passive tap between them timestamps both
// directions with a single clock. The delay distribution then isolates
// the reflector's stack- plus eBPF-induced latency, free of clock
// synchronization error.
//
// The six program variants mirror the paper's exactly: Base (reflect
// only), TS (one timestamp), TS-TS (two timestamps), TS-RB (timestamp
// into a ring buffer), TS-OW (timestamp overwritten into the packet
// payload), and TS-D-RB (difference of two timestamps into a ring
// buffer).
package reflection

import (
	"fmt"

	"steelnet/internal/ebpf"
	"steelnet/internal/frame"
)

// Variant names, as in Fig. 4.
const (
	VariantBase  = "Base"
	VariantTS    = "TS"
	VariantTSTS  = "TS-TS"
	VariantTSRB  = "TS-RB"
	VariantTSOW  = "TS-OW"
	VariantTSDRB = "TS-D-RB"
)

// VariantNames lists all variants in the paper's order.
var VariantNames = []string{VariantBase, VariantTS, VariantTSTS, VariantTSRB, VariantTSOW, VariantTSDRB}

// Variant bundles a verified XDP program with the ring buffer it may
// write to (nil for non-ring variants).
type Variant struct {
	Name    string
	Program *ebpf.Program
	Ring    *ebpf.RingBuf
}

// ethTypeOff is the EtherType offset in an untagged frame; probes are
// sent untagged so payload offsets are static for the TS-OW stores.
const (
	ethTypeOff   = 12
	payloadOff   = 14
	benchEchoVal = int64(frame.TypeBenchEcho)
)

// emitGuardAndSwap emits the shared prologue: pass non-probe frames,
// then swap destination and source MACs in place so an XDP_TX verdict
// returns the frame to its sender. R1 stays 0 (packet base).
func emitGuardAndSwap(a *ebpf.Asm) {
	a.MovImm(ebpf.R1, 0).
		LdPkt(ebpf.R2, ebpf.R1, ethTypeOff, 2).
		JNeImm(ebpf.R2, benchEchoVal, "pass").
		// Load dst (bytes 0..5) and src (bytes 6..11) as 4+2.
		LdPkt(ebpf.R2, ebpf.R1, 0, 4).
		LdPkt(ebpf.R3, ebpf.R1, 4, 2).
		LdPkt(ebpf.R4, ebpf.R1, 6, 4).
		LdPkt(ebpf.R5, ebpf.R1, 10, 2).
		StPkt(ebpf.R1, 0, ebpf.R4, 4).
		StPkt(ebpf.R1, 4, ebpf.R5, 2).
		StPkt(ebpf.R1, 6, ebpf.R2, 4).
		StPkt(ebpf.R1, 10, ebpf.R3, 2)
}

// emitEpilogue emits the TX return and the shared pass label.
func emitEpilogue(a *ebpf.Asm) {
	a.Return(ebpf.XDPTx).
		Label("pass").
		Return(ebpf.XDPPass)
}

// NewBase builds the Base variant: guard, swap, transmit.
func NewBase() Variant {
	a := ebpf.NewAsm(VariantBase)
	emitGuardAndSwap(a)
	emitEpilogue(a)
	return Variant{Name: VariantBase, Program: a.MustProgram()}
}

// NewTS builds TS: Base plus one ktime read spilled to the stack.
func NewTS() Variant {
	a := ebpf.NewAsm(VariantTS)
	emitGuardAndSwap(a)
	a.Call(ebpf.HelperKtime).
		StStack(0, ebpf.R0, 8)
	emitEpilogue(a)
	return Variant{Name: VariantTS, Program: a.MustProgram()}
}

// NewTSTS builds TS-TS: two ktime reads spilled to the stack.
func NewTSTS() Variant {
	a := ebpf.NewAsm(VariantTSTS)
	emitGuardAndSwap(a)
	a.Call(ebpf.HelperKtime).
		StStack(0, ebpf.R0, 8).
		Call(ebpf.HelperKtime).
		StStack(8, ebpf.R0, 8)
	emitEpilogue(a)
	return Variant{Name: VariantTSTS, Program: a.MustProgram()}
}

// NewTSRB builds TS-RB: one ktime read emitted to a ring buffer.
func NewTSRB() Variant {
	rb := ebpf.NewRingBuf("ts-rb", 1<<16)
	a := ebpf.NewAsm(VariantTSRB)
	fd := a.WithRing(rb)
	emitGuardAndSwap(a)
	a.Call(ebpf.HelperKtime).
		StStack(0, ebpf.R0, 8).
		MovImm(ebpf.R1, fd).
		MovImm(ebpf.R2, 0).
		MovImm(ebpf.R3, 8).
		Call(ebpf.HelperRingbufOutput)
	emitEpilogue(a)
	return Variant{Name: VariantTSRB, Program: a.MustProgram(), Ring: rb}
}

// NewTSOW builds TS-OW: one ktime read overwritten into the probe's
// TS1 slot in the packet payload.
func NewTSOW() Variant {
	ts1, _ := frame.ProbeTimestampOffsets()
	a := ebpf.NewAsm(VariantTSOW)
	emitGuardAndSwap(a)
	a.Call(ebpf.HelperKtime).
		MovImm(ebpf.R6, 0).
		StPkt(ebpf.R6, int32(payloadOff+ts1), ebpf.R0, 8)
	emitEpilogue(a)
	return Variant{Name: VariantTSOW, Program: a.MustProgram()}
}

// NewTSDRB builds TS-D-RB: two ktime reads whose difference is emitted
// to a ring buffer.
func NewTSDRB() Variant {
	rb := ebpf.NewRingBuf("ts-d-rb", 1<<16)
	a := ebpf.NewAsm(VariantTSDRB)
	fd := a.WithRing(rb)
	emitGuardAndSwap(a)
	a.Call(ebpf.HelperKtime).
		MovReg(ebpf.R7, ebpf.R0).
		Call(ebpf.HelperKtime).
		SubReg(ebpf.R0, ebpf.R7).
		StStack(0, ebpf.R0, 8).
		MovImm(ebpf.R1, fd).
		MovImm(ebpf.R2, 0).
		MovImm(ebpf.R3, 8).
		Call(ebpf.HelperRingbufOutput)
	emitEpilogue(a)
	return Variant{Name: VariantTSDRB, Program: a.MustProgram(), Ring: rb}
}

// CloneFresh returns a variant that shares v's verified, compiled
// program code but carries a fresh ring buffer. Sweeps build each
// variant once and clone it per cell, paying assemble/verify/compile
// once per sweep instead of once per cell.
func (v Variant) CloneFresh() Variant {
	c := Variant{Name: v.Name, Program: v.Program.CloneFresh()}
	if v.Ring != nil {
		for i, r := range v.Program.Rings {
			if r == v.Ring {
				c.Ring = c.Program.Rings[i]
				break
			}
		}
	}
	return c
}

// NewVariant builds a variant by its Fig. 4 name.
func NewVariant(name string) (Variant, error) {
	switch name {
	case VariantBase:
		return NewBase(), nil
	case VariantTS:
		return NewTS(), nil
	case VariantTSTS:
		return NewTSTS(), nil
	case VariantTSRB:
		return NewTSRB(), nil
	case VariantTSOW:
		return NewTSOW(), nil
	case VariantTSDRB:
		return NewTSDRB(), nil
	}
	return Variant{}, fmt.Errorf("reflection: unknown variant %q", name)
}

// AllVariants builds all six variants in order.
func AllVariants() []Variant {
	out := make([]Variant, 0, len(VariantNames))
	for _, n := range VariantNames {
		v, err := NewVariant(n)
		if err != nil {
			panic(err)
		}
		out = append(out, v)
	}
	return out
}
