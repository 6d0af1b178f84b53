package frame

// In-band network telemetry (INT), modeled on the P4 INT source /
// transit / sink roles: a source attaches a bounded metadata stack to a
// frame, every transit node pushes one per-hop record (timestamps,
// egress queue depth, drop risk), and a sink strips the stack and folds
// it into path digests (internal/int). Like Meta, the stack travels in
// the frame descriptor rather than in Payload — but unlike Meta it is
// byte-accounted: WireLen grows by the shim plus one hop record per
// stamped hop, so INT-bearing frames pay real serialization time and
// bandwidth, exactly the cost the technique has on hardware.

// INT wire-size model: a fixed shim header plus a fixed-size record per
// hop (node id, two timestamps, queue depth, flags — the paper-typical
// INT-MD layout rounded to 8-byte alignment).
const (
	INTShimBytes = 4
	INTHopBytes  = 24
)

// DefaultINTMaxHops bounds the stack when the source does not choose:
// deep enough for every topology in the repository (the leaf-spine's
// longest path is 4 forwarding hops).
const DefaultINTMaxHops = 8

// INTHop is one transit node's record.
type INTHop struct {
	// Node names the transit element. It always aliases a name that
	// outlives the run (switch/tap/pipeline names) — stamping never
	// builds strings.
	Node string
	// IngressNS and EgressNS are the node-local receive and forward
	// instants in simulated nanoseconds.
	IngressNS int64
	EgressNS  int64
	// QueueDepth is the egress queue depth the frame saw ahead of
	// itself when the node chose its output port.
	QueueDepth int32
	// DropRisk flags an egress queue at or above 3/4 of its per-class
	// capacity — the congestion early-warning the SLO watchdog reads.
	DropRisk bool
}

// HopLatencyNS is the node's residence time for this frame.
func (h INTHop) HopLatencyNS() int64 { return h.EgressNS - h.IngressNS }

// INTStack is the metadata stack one frame carries. A nil *INTStack on
// a Frame means INT is off for that frame; every transit check is a
// single pointer test, keeping the disabled hot path allocation-free.
type INTStack struct {
	// Source names the node that attached the stack; SourceNS is when.
	Source   string
	SourceNS int64
	// FlowID and Seq identify the frame within its flow so sinks can
	// measure loss from sequence gaps.
	FlowID uint32
	Seq    uint32
	// MaxHops bounds the stack; Strict selects the hop-exceeded policy:
	// strict stacks drop the frame at the transit node that cannot
	// stamp (counted as an INT drop), lenient stacks forward unstamped
	// — the two behaviors real INT deployments choose between.
	MaxHops int
	Strict  bool
	// Hops holds the transit records in path order.
	Hops []INTHop
}

// AttachINT makes the frame an INT source frame: it attaches a newly
// allocated stack with room for maxHops records (<=0 selects
// DefaultINTMaxHops) and returns it. Any previously attached stack is
// replaced. Transmit paths attach through Pool.AttachINT, which
// recycles stacks.
func (f *Frame) AttachINT(source string, flow, seq uint32, nowNS int64, maxHops int) *INTStack {
	return f.attachINT(&INTStack{}, source, flow, seq, nowNS, maxHops)
}

// attachINT resets every field of s, new or recycled, keeping its hop
// storage when that has room for maxHops records, and attaches it.
func (f *Frame) attachINT(s *INTStack, source string, flow, seq uint32, nowNS int64, maxHops int) *INTStack {
	if maxHops <= 0 {
		maxHops = DefaultINTMaxHops
	}
	hops := s.Hops[:0]
	if cap(hops) < maxHops {
		hops = make([]INTHop, 0, maxHops)
	}
	*s = INTStack{
		Source:   source,
		SourceNS: nowNS,
		FlowID:   flow,
		Seq:      seq,
		MaxHops:  maxHops,
		Hops:     hops,
	}
	f.INT = s
	return s
}

// PushHop appends one transit record. It reports false when the stack
// is already at MaxHops; the caller then applies the stack's policy
// (see Strict).
func (s *INTStack) PushHop(h INTHop) bool {
	if len(s.Hops) >= s.MaxHops {
		return false
	}
	s.Hops = append(s.Hops, h)
	return true
}

// WireBytes is the stack's current on-wire footprint: the shim plus the
// stamped hop records.
func (s *INTStack) WireBytes() int { return INTShimBytes + len(s.Hops)*INTHopBytes }
