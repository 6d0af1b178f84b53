// Package tap implements the passive network tap at the heart of the
// Traffic Reflection methodology (§3, Fig. 3): an inline two-port device
// that forwards frames transparently and timestamps every frame it sees
// with a single local clock. Because both the outbound probe and the
// reflected probe cross the same tap, their timestamp difference needs
// no clock synchronization at all — the property that lets the method
// resolve nanosecond-level eBPF jitter despite PTP's µs-scale errors.
// The tap's own timestamping granularity (8 ns in the paper's hardware)
// is modeled with a quantized clock.
package tap

import (
	"fmt"

	"steelnet/internal/clock"
	"steelnet/internal/frame"
	"steelnet/internal/sim"
	"steelnet/internal/simnet"
)

// Direction identifies which tap port a frame entered.
type Direction int

// Directions: AtoB means the frame entered port A (towards B).
const (
	AtoB Direction = iota
	BtoA
)

// String names the direction.
func (d Direction) String() string {
	if d == AtoB {
		return "a->b"
	}
	return "b->a"
}

// Capture is one timestamped observation.
type Capture struct {
	Timestamp int64 // tap-clock ns
	Dir       Direction
	WireLen   int
	// Seq and FlowID are parsed from probe payloads when present
	// (TypeBenchEcho); zero otherwise.
	Seq    uint32
	FlowID uint32
	Type   frame.EtherType
}

// Tap is the inline device. Port A faces the sender, port B the device
// under test. Forwarding adds a fixed pass-through latency (store-free
// electrical taps are ~ns; configurable).
//
// The tap keeps no log of what it saw: probes are paired as they cross
// and each match is handed to OnRoundTrip, every observation is offered
// to OnCapture, and its memory is the probes awaiting their reflection.
type Tap struct {
	name    string
	engine  *sim.Engine
	clock   clock.Clock
	latency sim.Duration
	portA   *simnet.Port
	portB   *simnet.Port

	// open holds the A→B timestamp of every probe still awaiting its
	// reflection.
	open map[probeKey]int64

	// fifo[head:] are the frames inside the pass-through delay, oldest
	// first. The delay is one constant, so forwarding events fire in the
	// order they were scheduled and the tap, as forwardEv, is the
	// handler of them all.
	fifo []transit
	head int

	// OnCapture, when set, observes every capture as it happens.
	OnCapture func(Capture)
	// OnRoundTrip, when set, receives each round trip as it is matched:
	// an A→B probe paired with the next B→A probe carrying the same
	// flow and sequence number, with the tap-clock delay between them —
	// the measurement of Fig. 3. Unmatched probes never reach it.
	OnRoundTrip func(flow uint32, r RTT)
}

// probeKey identifies one probe of one flow.
type probeKey struct{ flow, seq uint32 }

// transit is one frame crossing the tap.
type transit struct {
	f     *frame.Frame
	in    *simnet.Port
	intIn int64 // ingress instant for the INT record; set only when f carries a stack
}

// Config parameterizes a tap.
type Config struct {
	// TimestampStep is the capture-clock granularity (the paper's tap:
	// 8 ns). Zero means no quantization.
	TimestampStep sim.Duration
	// PassThrough is the added forwarding latency per direction.
	PassThrough sim.Duration
	// ClockOffset is the tap clock's fixed offset from true time. It
	// cancels out of all intra-tap differences — that is the point.
	ClockOffset sim.Duration
}

// DefaultConfig matches the paper's tap: 8 ns stamps, negligible
// pass-through.
var DefaultConfig = Config{TimestampStep: 8 * sim.Nanosecond, PassThrough: 5 * sim.Nanosecond}

// New creates a tap.
func New(engine *sim.Engine, name string, cfg Config) *Tap {
	t := &Tap{
		name:    name,
		engine:  engine,
		latency: cfg.PassThrough,
		clock: clock.Quantized{
			Base: clock.Perfect{Offset: cfg.ClockOffset},
			Step: cfg.TimestampStep,
		},
		open: make(map[probeKey]int64),
	}
	t.portA = simnet.NewPort(t, 0)
	t.portB = simnet.NewPort(t, 1)
	return t
}

// Name implements simnet.Node.
func (t *Tap) Name() string { return t.name }

// PortA returns the sender-facing port.
func (t *Tap) PortA() *simnet.Port { return t.portA }

// PortB returns the device-under-test-facing port.
func (t *Tap) PortB() *simnet.Port { return t.portB }

// Receive implements simnet.Node: capture, pair, then forward out the
// other port after the pass-through latency.
func (t *Tap) Receive(port *simnet.Port, f *frame.Frame) {
	c := Capture{
		Timestamp: t.clock.Read(t.engine.Now()),
		Dir:       AtoB,
		WireLen:   f.WireLen(),
		Type:      f.Type,
	}
	if port == t.portB {
		c.Dir = BtoA
	}
	if f.Type == frame.TypeBenchEcho {
		if p, err := frame.UnmarshalProbe(f.Payload); err == nil {
			c.Seq = p.Seq
			c.FlowID = p.FlowID
		}
		t.pair(c)
	}
	if t.OnCapture != nil {
		t.OnCapture(c)
	}
	tr := transit{f: f, in: port}
	if f.INT != nil {
		tr.intIn = int64(t.engine.Now())
	}
	if t.head > 0 && len(t.fifo) == cap(t.fifo) {
		// Reuse the drained front instead of growing.
		n := copy(t.fifo, t.fifo[t.head:])
		clear(t.fifo[n:])
		t.fifo, t.head = t.fifo[:n], 0
	}
	t.fifo = append(t.fifo, tr)
	t.engine.After(t.latency, (*forwardEv)(t))
}

// pair folds one TypeBenchEcho capture into the round-trip state: an
// A→B probe opens (or re-opens) its (flow, sequence) slot, and the next
// B→A capture with the same key closes it into an RTT for OnRoundTrip.
// A payload too short to parse counts as flow 0, sequence 0.
func (t *Tap) pair(c Capture) {
	k := probeKey{c.FlowID, c.Seq}
	if c.Dir == AtoB {
		t.open[k] = c.Timestamp
		return
	}
	start, ok := t.open[k]
	if !ok {
		return
	}
	delete(t.open, k)
	if t.OnRoundTrip != nil {
		t.OnRoundTrip(c.FlowID, RTT{Seq: c.Seq, Delay: sim.Duration(c.Timestamp - start)})
	}
}

// forwardEv is a tap as the handler of its forwarding events.
type forwardEv Tap

// Fire sends the oldest frame in transit out the far port.
func (e *forwardEv) Fire() {
	t := (*Tap)(e)
	tr := t.fifo[t.head]
	t.fifo[t.head] = transit{}
	if t.head++; t.head == len(t.fifo) {
		t.fifo, t.head = t.fifo[:0], 0
	}
	out := t.portB
	if tr.in == t.portB {
		out = t.portA
	}
	if tr.f.INT != nil {
		t.stampINT(tr.f, tr.intIn, out)
	}
	if !out.Send(tr.f) && tr.in.OnDrop != nil {
		// Refused at egress: the tap owned the frame, so it reclaims it
		// the way a switch does, through the ingress port's hook.
		tr.in.OnDrop(tr.f)
	}
}

// stampINT pushes the tap's transit record onto f's INT stack. Unlike a
// switch, a passive tap never destroys frames for telemetry: when the
// stack is full the frame forwards unstamped even under strict policy.
// Hop instants are raw engine time (the tap's quantized clock applies
// only to its Capture timestamps), which is what lets the
// cross-validation test compare INT hops against capture timestamps to
// within one TimestampStep tick.
func (t *Tap) stampINT(f *frame.Frame, intIn int64, out *simnet.Port) {
	f.INT.PushHop(frame.INTHop{
		Node:       t.name,
		IngressNS:  intIn,
		EgressNS:   int64(t.engine.Now()),
		QueueDepth: int32(out.QueueDepth()),
	})
}

// Reset discards the probes still awaiting their reflection: a
// reflection crossing after it matches nothing sent before it.
func (t *Tap) Reset() { clear(t.open) }

// RTT is one matched probe round trip as seen by the tap.
type RTT struct {
	Seq   uint32
	Delay sim.Duration
}

// String renders the measurement.
func (r RTT) String() string { return fmt.Sprintf("seq=%d delay=%v", r.Seq, r.Delay) }
