// Package telemetry is the observability layer of the simulator: a
// frame-lifecycle tracer, a metrics registry, and exporters that turn a
// deterministic run into inspectable artifacts (JSONL event logs, Chrome
// trace-event timelines, Prometheus-style registry snapshots).
//
// The design rule that shapes every API here is *zero overhead when
// disabled*: a nil *Tracer is a valid tracer whose record methods are
// cheap branches, so instrumented hot paths (port egress, switch
// forwarding) stay 0 allocs/op and produce byte-identical results when
// nobody is watching. Instrumentation points therefore pass only values
// that already exist (node name strings, frame pointers, scalars) —
// never anything that must be built to be recorded.
package telemetry

import (
	"steelnet/internal/frame"
	"steelnet/internal/sim"
)

// Kind identifies a lifecycle event type.
type Kind uint8

// Lifecycle event kinds, in rough frame order: a frame is born at a host
// (HostTx), queues at a port (Enqueue), occupies the wire (TxStart),
// transits switches (Forward/Flood/PacketIn), may be damaged (Corrupt)
// or destroyed (Drop), and finally arrives (Deliver). Fault phases
// (FaultInject/FaultRecover) bracket chaos-plan excursions.
const (
	KindHostTx Kind = iota
	KindEnqueue
	KindTxStart
	KindForward
	KindFlood
	KindPacketIn
	KindCorrupt
	KindDrop
	KindDeliver
	KindFaultInject
	KindFaultRecover
	KindSLOBreach
	KindSLOClear
	// KindCrossShard marks a frame leaving its shard over a cross-shard
	// link: the causal stitch point between two shards' timelines. Aux
	// packs the source shard in the high 32 bits and the destination
	// shard in the low 32.
	KindCrossShard
	// KindShardWindow is one shard's execution span inside one
	// synchronization window (profiler output): Node is the shard lane
	// ("shard/N"), Aux the window duration in ns, Frame the number of
	// events the shard fired in it.
	KindShardWindow
	// KindBarrier is a window barrier instant: Node is "barrier", Aux
	// the number of cross-shard messages flushed there.
	KindBarrier
	// Gateway-plane kinds (steelnetd). They render as a separate
	// "steelnetd" process in the Chrome exporter, in lanes above the
	// shard lanes, so one trace file follows a subscriber-facing
	// request down into sim windows and barriers.
	//
	// KindRunWindow is one hosted run's publish slice: Node is the run
	// lane ("run/<id>"), T the slice's start instant, Aux its duration
	// in simulated ns, Frame the sample seq at the slice boundary.
	KindRunWindow
	// KindRuleFiring is one rule-engine firing: Node is the run lane,
	// Detail the rule spec, Aux the sample seq it fired on.
	KindRuleFiring
	// KindHTTPRequest is one gateway HTTP request: Node is "http",
	// Detail the route pattern, Aux the wall-clock handling duration in
	// ns, Frame the response status code, anchored at the touched run's
	// latest published sim instant (T).
	KindHTTPRequest
	numKinds
)

var kindNames = [numKinds]string{
	"host-tx", "enqueue", "tx-start", "forward", "flood", "packet-in",
	"corrupt", "drop", "deliver", "fault-inject", "fault-recover",
	"slo-breach", "slo-clear", "cross-shard", "shard-window", "barrier",
	"run-window", "rule-firing", "http-request",
}

// String returns the stable wire name of the kind (used in JSONL).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// KindFromString inverts String; ok is false for unknown names.
func KindFromString(s string) (Kind, bool) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), true
		}
	}
	return 0, false
}

// Cause classifies why a Drop (or refusal) happened.
type Cause uint8

// Drop causes. CauseOverflow and CauseLinkDown are refusals at Send (the
// frame stays the caller's); the rest destroy frames the network had
// accepted.
const (
	CauseNone         Cause = iota
	CauseOverflow           // egress queue full at Send
	CauseLinkDown           // Send on a downed link
	CauseFlush              // queued frame flushed by link-down or switch crash
	CauseShaper             // never-eligible under the port's gate schedule
	CauseWire               // link died while the frame occupied the wire
	CauseInjected           // loss injection (internal/faults)
	CauseSwitchFailed       // arrived at or buffered inside a crashed switch
	CauseBlocked            // blocked ingress/egress port (ring redundancy)
	CauseHairpin            // egress == ingress
	CausePipeline           // programmable data plane verdict: drop
	CauseINT                // strict INT stack full at a transit node
	numCauses
)

var causeNames = [numCauses]string{
	"", "overflow", "link-down", "flush", "shaper", "wire",
	"injected", "switch-failed", "blocked", "hairpin", "pipeline",
	"int-overflow",
}

// String returns the stable wire name of the cause ("" for CauseNone).
func (c Cause) String() string {
	if int(c) < len(causeNames) {
		return causeNames[c]
	}
	return "unknown"
}

// CauseFromString inverts String; ok is false for unknown names.
func CauseFromString(s string) (Cause, bool) {
	for i, n := range causeNames {
		if n == s {
			return Cause(i), true
		}
	}
	return 0, false
}

// Event is one recorded lifecycle event. The struct is fixed-size apart
// from the two strings, which always alias names that outlive the run
// (node names, fault specs) — recording never builds strings.
type Event struct {
	// T is the simulated time in nanoseconds.
	T int64
	// Kind is the event type.
	Kind Kind
	// Cause classifies drops; CauseNone otherwise.
	Cause Cause
	// Prio is the frame's effective 802.1Q priority (0 for non-frame events).
	Prio uint8
	// Port is the port index at the node (-1 when not applicable).
	Port int32
	// Frame is the tracer-assigned frame id (0 for non-frame events).
	Frame uint64
	// Aux carries per-kind extra data: serialization ns for TxStart,
	// end-to-end latency ns for Deliver, egress port for Forward, flood
	// leg count for Flood, fault duration ns for FaultInject.
	Aux int64
	// Node is the name of the component recording the event (or the
	// fault target for fault events).
	Node string
	// Detail carries the fault spec for fault events, "" otherwise.
	Detail string
}

// Tracer records frame-lifecycle events against one engine's clock. The
// zero value of *Tracer — nil — is a disabled tracer: every record
// method is safe and nearly free on it, which is how instrumented hot
// paths avoid both branches at call sites and allocation when tracing
// is off. A Tracer is engine-affine and not safe for concurrent use;
// sweeps give each cell its own and MergeFrom them in cell order.
type Tracer struct {
	engine *sim.Engine
	events []Event
	nextID uint64
	// idBase offsets every assigned frame id — see SetIDSpace. Zero for
	// ordinary tracers.
	idBase uint64
	// retain controls whether emitted events are appended to the
	// in-memory log. NewTracer retains; a flight-recorder-only tracer
	// sets retain false so long runs stay bounded while the observer
	// still sees every event.
	retain bool
	// observer, when set, sees every event as it is emitted — the hook
	// the flight recorder rides on.
	observer func(Event)
}

// NewTracer creates a tracer bound to e (which may be nil until Bind).
func NewTracer(e *sim.Engine) *Tracer { return &Tracer{engine: e, retain: true} }

// Bind points the tracer at an engine's clock. Experiments call this at
// build time so one tracer handed in via a config can follow the cell's
// private engine; successive cells of a serial sweep simply rebind.
func (t *Tracer) Bind(e *sim.Engine) {
	if t != nil {
		t.engine = e
	}
}

// SetRetain controls whether emitted events accumulate in Events().
// Turning retention off keeps the tracer usable as a pure event bus
// (e.g. feeding only a flight recorder's bounded rings).
func (t *Tracer) SetRetain(on bool) {
	if t != nil {
		t.retain = on
	}
}

// SetObserver installs fn as the live event observer (nil removes it).
// The observer runs synchronously at emit time, in event order.
func (t *Tracer) SetObserver(fn func(Event)) {
	if t != nil {
		t.observer = fn
	}
}

// emit is the single point every event funnels through: the record
// methods, MergeFrom and AbsorbEvents.
func (t *Tracer) emit(e Event) {
	if t.retain {
		t.events = append(t.events, e)
	}
	if t.observer != nil {
		t.observer(e)
	}
}

// MergeFrom emits src's events on t, remapping src's dense frame ids
// past t's so the merged log keeps ids unique. Parallel sweeps give each
// cell a private tracer and merge them back in deterministic cell order;
// because ids are per-tracer and dense, the merged log — and what t's
// observer sees — is byte-identical to what any fixed worker count
// produces. src is left untouched.
//
// MergeFrom is for sweep cells, whose frame populations are disjoint —
// remapping is what keeps their ids unique. Per-shard tracers of one
// ShardGroup must NOT be merged this way: a frame that crossed shards
// appears in several tracers under one id, and remapping would sever the
// causal stitch. Shard tracers use SetIDSpace + MergeShardEvents, which
// preserve ids (see shard.go).
func (t *Tracer) MergeFrom(src *Tracer) {
	if t == nil || src == nil {
		return
	}
	base := t.nextID
	for _, e := range src.events {
		if e.Frame != 0 {
			e.Frame += base
		}
		t.emit(e)
	}
	t.nextID += src.nextID
}

// Events returns the recorded events in firing order. The slice is the
// tracer's own; callers must not append to it.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events
}

// Len returns the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// now returns the bound engine's time, or 0 when unbound.
func (t *Tracer) now() int64 {
	if t.engine == nil {
		return 0
	}
	return int64(t.engine.Now())
}

// FrameID returns f's trace id, assigning the next one on first use.
// Ids are per-tracer, dense, and start at 1; clones inherit their
// original's id, so a flooded frame's copies share one lifecycle line.
func (t *Tracer) FrameID(f *frame.Frame) uint64 {
	if t == nil {
		return 0
	}
	if f.Meta.TraceID == 0 {
		t.nextID++
		f.Meta.TraceID = t.idBase + t.nextID
	}
	return f.Meta.TraceID
}

// frameEvent records a frame-keyed event.
func (t *Tracer) frameEvent(kind Kind, cause Cause, node string, port int, f *frame.Frame, aux int64) {
	if t == nil {
		return
	}
	t.emit(Event{
		T:     t.now(),
		Kind:  kind,
		Cause: cause,
		Prio:  uint8(f.EffectivePriority()),
		Port:  int32(port),
		Frame: t.FrameID(f),
		Aux:   aux,
		Node:  node,
	})
}

// HostTx records a host handing a frame to its egress port.
func (t *Tracer) HostTx(node string, f *frame.Frame) {
	t.frameEvent(KindHostTx, CauseNone, node, 0, f, 0)
}

// Enqueue records a frame accepted into a port's egress queue; depth is
// the queue depth after the push.
func (t *Tracer) Enqueue(node string, port int, f *frame.Frame, depth int) {
	t.frameEvent(KindEnqueue, CauseNone, node, port, f, int64(depth))
}

// TxStart records a frame beginning to occupy the wire for ser ns.
func (t *Tracer) TxStart(node string, port int, f *frame.Frame, ser int64) {
	t.frameEvent(KindTxStart, CauseNone, node, port, f, ser)
}

// Forward records a switch forwarding a frame from port to egress out.
func (t *Tracer) Forward(node string, port, out int, f *frame.Frame) {
	t.frameEvent(KindForward, CauseNone, node, port, f, int64(out))
}

// Flood records a switch flooding a frame out legs ports.
func (t *Tracer) Flood(node string, port int, f *frame.Frame, legs int) {
	t.frameEvent(KindFlood, CauseNone, node, port, f, int64(legs))
}

// PacketIn records the programmable data plane punting a frame to its
// controller.
func (t *Tracer) PacketIn(node string, port int, f *frame.Frame) {
	t.frameEvent(KindPacketIn, CauseNone, node, port, f, 0)
}

// Corrupt records corruption injection damaging a frame in flight.
func (t *Tracer) Corrupt(node string, port int, f *frame.Frame) {
	t.frameEvent(KindCorrupt, CauseNone, node, port, f, 0)
}

// Drop records the network destroying (or refusing) a frame for cause.
func (t *Tracer) Drop(node string, port int, f *frame.Frame, cause Cause) {
	t.frameEvent(KindDrop, cause, node, port, f, 0)
}

// Deliver records a frame arriving at node's port with the given
// end-to-end latency (ns since the sender stamped CreatedAt).
func (t *Tracer) Deliver(node string, port int, f *frame.Frame, latency int64) {
	t.frameEvent(KindDeliver, CauseNone, node, port, f, latency)
}

// CrossShard records a frame departing shard src toward shard dst over a
// cross-shard link — the stitch point where the frame's lifecycle leaves
// this tracer's timeline and resumes on the destination shard's. Called
// by the sending shard's tracer, so the frame id is assigned (in the
// sender's id space) before the frame crosses.
func (t *Tracer) CrossShard(node string, port int, f *frame.Frame, src, dst int) {
	t.frameEvent(KindCrossShard, CauseNone, node, port, f, int64(src)<<32|int64(dst))
}

// FaultInject records a fault phase firing on target; spec is the
// event's plan spec and dur its programmed duration (0 = one-shot).
func (t *Tracer) FaultInject(target, spec string, dur int64) {
	if t == nil {
		return
	}
	t.emit(Event{T: t.now(), Kind: KindFaultInject, Port: -1, Aux: dur, Node: target, Detail: spec})
}

// FaultRecover records a fault's recovery phase firing on target.
func (t *Tracer) FaultRecover(target, spec string) {
	if t == nil {
		return
	}
	t.emit(Event{T: t.now(), Kind: KindFaultRecover, Port: -1, Node: target, Detail: spec})
}

// SLOBreach records the watchdog entering breach on an objective. Node
// is the objective's path/target, Detail its spec string, measured the
// observed value (ns for latency/jitter, lost-per-million for loss).
func (t *Tracer) SLOBreach(target, spec string, measured int64) {
	if t == nil {
		return
	}
	t.emit(Event{T: t.now(), Kind: KindSLOBreach, Port: -1, Aux: measured, Node: target, Detail: spec})
}

// SLOClear records the watchdog leaving breach on an objective.
func (t *Tracer) SLOClear(target, spec string) {
	if t == nil {
		return
	}
	t.emit(Event{T: t.now(), Kind: KindSLOClear, Port: -1, Node: target, Detail: spec})
}
