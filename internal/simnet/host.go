package simnet

import (
	"steelnet/internal/frame"
	"steelnet/internal/sim"
	"steelnet/internal/telemetry"
)

// INTSink consumes terminated in-band telemetry stacks at a sink node.
// internal/int's Collector is the canonical implementation; the
// interface is declared here so simnet does not depend on it.
type INTSink interface {
	// SinkINT observes f's INT stack at sink node at simulated time
	// nowNS. The stack is still attached; the caller strips it after.
	SinkINT(node string, f *frame.Frame, nowNS int64)
}

// Host is a single-port endpoint: it owns a MAC address and hands
// received frames to a pluggable handler. The PLC runtime, I/O devices,
// traffic generators and ML clients are all Hosts with different
// handlers.
type Host struct {
	name    string
	engine  *sim.Engine
	mac     frame.MAC
	port    Port
	handler func(*frame.Frame)
	tr      *telemetry.Tracer

	// INT source/sink roles (see SetINTSource/SetINTSink). intSeq is the
	// source's per-flow sequence counter, folded into checkpoints.
	intSource  bool
	intFlow    uint32
	intMaxHops int
	intStrict  bool
	intSeq     uint32
	intSink    INTSink
	// pool is the free list of the station built on the host (see
	// UsePool); nil until Pool makes the host one of its own.
	pool *frame.Pool

	// RxCount counts frames delivered to the handler.
	RxCount uint64
}

// NewHost creates a host with the given MAC.
func NewHost(engine *sim.Engine, name string, mac frame.MAC) *Host {
	h := &Host{}
	h.init(engine, name, mac)
	return h
}

// init readies a zero host in place: a network cuts its hosts from one
// slab, and the embedded port is never copied once it exists.
func (h *Host) init(engine *sim.Engine, name string, mac frame.MAC) {
	h.name, h.engine, h.mac = name, engine, mac
	h.port.init(h, 0)
}

// Name implements Node.
func (h *Host) Name() string { return h.name }

// MAC returns the host's address.
func (h *Host) MAC() frame.MAC { return h.mac }

// Port returns the host's single port.
func (h *Host) Port() *Port { return &h.port }

// Engine returns the simulation engine the host runs on.
func (h *Host) Engine() *sim.Engine { return h.engine }

// OnReceive installs the frame handler. Frames addressed elsewhere
// (unicast to another MAC) are filtered before the handler runs.
func (h *Host) OnReceive(fn func(*frame.Frame)) { h.handler = fn }

// SetTracer attaches a lifecycle tracer to the host and its port.
func (h *Host) SetTracer(t *telemetry.Tracer) {
	h.tr = t
	h.port.SetTracer(t)
}

// SetINTSource makes the host an INT source: every Send attaches a
// telemetry stack carrying flow, a per-host sequence number, and
// room for maxHops transit records (<=0 selects the default). strict
// selects the stack's hop-exceeded policy (see frame.INTStack).
func (h *Host) SetINTSource(flow uint32, maxHops int, strict bool) {
	h.intSource = true
	h.intFlow = flow
	h.intMaxHops = maxHops
	h.intStrict = strict
}

// SetINTSink makes the host an INT sink: received stacks are handed to
// sink and stripped before the frame reaches the handler, the way a
// hardware sink strips the stack before host delivery. Nil disables.
func (h *Host) SetINTSink(sink INTSink) { h.intSink = sink }

// UsePool makes p the host's free list: the station built on the host
// draws its frames from it and returns them to it, a source host
// attaches its telemetry stacks from it, a sink host strips them into
// it, and the frames the network destroys at the host's port return to
// it — so one pool per cell recycles frames, stacks and drops alike.
// Call before traffic starts.
func (h *Host) UsePool(p *frame.Pool) {
	h.pool = p
	h.port.OnDrop = p.PutFunc()
}

// Pool returns the host's free list. Without UsePool it is a pool of
// the host's own, made on first use, that no drop returns to.
func (h *Host) Pool() *frame.Pool {
	if h.pool == nil {
		h.pool = &frame.Pool{}
	}
	return h.pool
}

// Receive implements Node.
func (h *Host) Receive(port *Port, f *frame.Frame) {
	if !f.Dst.IsBroadcast() && !f.Dst.IsMulticast() && f.Dst != h.mac {
		port.reclaim(f) // not for us (flooded frame)
		return
	}
	if f.INT != nil && h.intSink != nil {
		h.intSink.SinkINT(h.name, f, int64(h.engine.Now()))
		h.Pool().StripINT(f)
	}
	h.RxCount++
	if h.handler != nil {
		h.handler(f)
	}
}

// Send stamps the frame with the host's source MAC and current time,
// then transmits it. It returns false when the frame was dropped at the
// egress queue.
func (h *Host) Send(f *frame.Frame) bool {
	f.Src = h.mac
	if f.Meta.CreatedAt == 0 {
		f.Meta.CreatedAt = int64(h.engine.Now())
	}
	if h.intSource {
		h.intSeq++
		st := h.Pool().AttachINT(f, h.name, h.intFlow, h.intSeq, int64(h.engine.Now()), h.intMaxHops)
		st.Strict = h.intStrict
	}
	if h.tr != nil {
		h.tr.HostTx(h.name, f)
	}
	return h.port.Send(f)
}
