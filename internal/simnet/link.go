// Package simnet is the discrete-event network simulator underneath every
// experiment in the repository: full-duplex links with serialization and
// propagation delay, store-and-forward switches with per-priority output
// queues, optional 802.1Qbv time-aware shaping (TAS) gates, passive taps,
// and host endpoints. It deliberately models the mechanisms the paper's
// arguments rest on — queueing delay from traffic mixing (§2.3, §5),
// priority isolation for RT traffic, and bounded, observable forwarding
// latency — while staying deterministic (all noise comes from named
// sim.RNG streams).
package simnet

import (
	"fmt"

	"steelnet/internal/frame"
	"steelnet/internal/sim"
	"steelnet/internal/telemetry"
)

// Node is anything that can be attached to links through ports: switches,
// hosts, taps, the programmable data plane.
type Node interface {
	// Name returns the node's unique name within its network.
	Name() string
	// Receive delivers a frame arriving on the node's port.
	Receive(port *Port, f *frame.Frame)
}

// Port is one attachment point of a node. A port is bound to at most one
// link end. Egress frames queue at the port and drain at link rate. The
// egress queue lives inside the port, and links, callbacks and traced
// closures point at it, so a port is used through its pointer and never
// copied: a switch's ports are one slice of Ports, a host embeds its one.
//
// A port holds inline only what every frame touches. What only a shaper,
// fault injection or a dropped frame writes lives in one portCold block,
// allocated on the first such write; a port that never sees one carries
// a nil pointer and reads its drop counters as zero.
type Port struct {
	Owner Node
	Index int
	link  *Link
	end   int // 0 or 1: which side of the link we are

	queue PriorityQueue
	busy  bool
	// lost is the loss-injection draw of the frame being serialized, cut
	// whether its link went down while it was.
	lost, cut bool

	// tr observes the port's frame lifecycle; nil (the default) keeps
	// the egress path allocation-free.
	tr *telemetry.Tracer
	// sending is the frame being serialized. wire threads, in order, the
	// frames that finished serializing and are propagating: a link's
	// propagation delay is fixed, so they reach the far end in the order
	// they left. The port is the handler of its completion events (see
	// serDoneEv), so egress schedules them without allocating. inFlight
	// counts frames that left the queue and have not yet reached a
	// terminal outcome.
	sending  *frame.Frame
	wire     frame.FIFO
	inFlight int

	cold *portCold

	// OnDrop, when set, observes every frame the network destroys after
	// accepting it: frames flushed by a link-down or switch crash, shaper
	// never-eligible drops, injected in-flight losses, and frames a
	// switch destroys internally (blocked ports, hairpins, refused egress
	// queues, flood leftovers). Frames that Send refuses (returning
	// false) to an *external* caller stay that caller's and are NOT
	// reported here — pooled transports reclaim those on the spot and
	// reclaim network-owned frames through this hook, keeping every
	// frame accounted for even under fault injection.
	OnDrop func(*frame.Frame)

	// Stats
	TxFrames, RxFrames uint64
	TxBytes, RxBytes   uint64

	// QueueHighWater is the deepest the egress queue has been.
	QueueHighWater int
}

// portCold is the state of a port that only a shaper, fault injection
// or a dropped frame writes. The counters decompose the port's drops by
// cause (read them through the Port methods of the same names):
//
//	Drops == OverflowDrops + DownDrops + ShaperDrops + FlushedDrops
//
// OverflowDrops: Send refused, queue full (the sum of droppedPerClass,
// the tail drops per priority class). DownDrops: Send refused, link down
// or absent. ShaperDrops: never-eligible under the gate schedule.
// FlushedDrops: queued frames destroyed by link-down or switch crash.
// WireDrops: in-flight frames destroyed by a link dying under them.
// InjectedDrops: frames destroyed by loss injection. CorruptedFrames:
// frames damaged by corruption injection. FailedDrops: frames a crashed
// switch destroyed on arrival at this port. INTDrops: frames a strict
// INT stack-overflow destroyed when the switch chose this port as egress
// (the frame died inside the switch, before the queue saw it — like
// FailedDrops it sits outside the port's conservation identity).
//
// lossRate drops each frame leaving the port with the given probability
// once it has occupied the wire; corruptRate flips one payload byte at
// delivery. Draws come from a port-named RNG stream, so injecting faults
// on one port never perturbs any other stream in the scenario.
type portCold struct {
	shaper   Shaper
	pausedTx sim.Event

	lossRate, corruptRate float64
	faultRNG              *sim.RNG

	droppedPerClass                                       [8]uint64
	downDrops, shaperDrops, flushedDrops, wireDrops       uint64
	injectedDrops, corruptedFrames, failedDrops, intDrops uint64
}

// noCold is what a port without a cold block reads: all zero.
var noCold portCold

// coldBlock returns the port's cold block, allocating it on first use.
// Only writers call it; readers go through readCold.
func (p *Port) coldBlock() *portCold {
	if p.cold == nil {
		p.cold = &portCold{}
	}
	return p.cold
}

// readCold returns the port's cold block, or an all-zero one.
func (p *Port) readCold() *portCold {
	if p.cold == nil {
		return &noCold
	}
	return p.cold
}

// Drops counts the frames Send refused plus those the shaper and
// flushes destroyed: OverflowDrops + DownDrops + ShaperDrops + FlushedDrops.
func (p *Port) Drops() uint64 {
	c := p.readCold()
	return p.OverflowDrops() + c.downDrops + c.shaperDrops + c.flushedDrops
}

// OverflowDrops counts frames Send refused because their class was full.
func (p *Port) OverflowDrops() uint64 {
	var n uint64
	for _, d := range p.readCold().droppedPerClass {
		n += d
	}
	return n
}

// DownDrops counts frames Send refused because the link was down or absent.
func (p *Port) DownDrops() uint64 { return p.readCold().downDrops }

// ShaperDrops counts frames the shaper would never let start.
func (p *Port) ShaperDrops() uint64 { return p.readCold().shaperDrops }

// FlushedDrops counts queued frames a link-down or switch crash destroyed.
func (p *Port) FlushedDrops() uint64 { return p.readCold().flushedDrops }

// WireDrops counts in-flight frames a link dying under them destroyed.
func (p *Port) WireDrops() uint64 { return p.readCold().wireDrops }

// InjectedDrops counts frames loss injection destroyed.
func (p *Port) InjectedDrops() uint64 { return p.readCold().injectedDrops }

// CorruptedFrames counts frames corruption injection damaged.
func (p *Port) CorruptedFrames() uint64 { return p.readCold().corruptedFrames }

// FailedDrops counts frames a crashed switch destroyed on arrival here.
func (p *Port) FailedDrops() uint64 { return p.readCold().failedDrops }

// INTDrops counts frames a strict INT stack overflow destroyed with this
// port as their egress.
func (p *Port) INTDrops() uint64 { return p.readCold().intDrops }

// CountINTDrop records one frame a strict INT stack overflow destroyed
// with this port as its egress; the element that stamps the stack (a
// switch, a data-plane pipeline) calls it.
func (p *Port) CountINTDrop() { p.coldBlock().intDrops++ }

// NewPort creates a port owned by owner with the given index and a
// default 256-frame-per-priority queue.
func NewPort(owner Node, index int) *Port {
	p := &Port{}
	p.init(owner, index)
	return p
}

// init readies a zero port in place, with the default queue bound:
// switches cut theirs from a slab and hosts embed theirs, so a port is
// never copied once it exists.
func (p *Port) init(owner Node, index int) {
	p.Owner, p.Index = owner, index
	p.queue.SetLimit(256)
}

// SetQueueLimit bounds each priority class of the port's egress queue at
// perClassLimit frames. Call before traffic flows.
func (p *Port) SetQueueLimit(perClassLimit int) { p.queue.SetLimit(perClassLimit) }

// SetTAS installs a time-aware-shaper gate schedule on the port.
func (p *Port) SetTAS(g *GateSchedule) { p.SetShaper(g) }

// SetShaper installs any Shaper (TAS gate schedule, credit-based
// shaper) on the port's egress.
func (p *Port) SetShaper(s Shaper) { p.coldBlock().shaper = s }

// SetTracer attaches a lifecycle tracer to the port. Passing nil (the
// default state) disables tracing with zero overhead.
func (p *Port) SetTracer(t *telemetry.Tracer) { p.tr = t }

// Connected reports whether the port is attached to a link.
func (p *Port) Connected() bool { return p.link != nil }

// Link returns the attached link, or nil.
func (p *Port) Link() *Link { return p.link }

// QueueDepth returns the number of frames waiting at the port.
func (p *Port) QueueDepth() int { return p.queue.Len() }

// InFlight returns frames that left the queue but have not yet reached
// a terminal outcome (delivery or destruction).
func (p *Port) InFlight() int { return p.inFlight }

// Accepted returns the frames the egress queue has accepted — the
// "sent" side of the port's conservation identity (see Account).
func (p *Port) Accepted() uint64 {
	var n uint64
	for _, c := range p.queue.EnqueuedPerClass {
		n += c
	}
	return n
}

// DeliveredFrames returns frames sent from this port that completed
// traversal to the link's far end.
func (p *Port) DeliveredFrames() uint64 {
	if p.link == nil {
		return 0
	}
	return p.link.Delivered[p.end]
}

// SetLossRate makes the port drop each departing frame with probability
// rate once it has finished serializing (the frame occupies the wire,
// then never arrives — how real loss looks to the sender). Zero disables.
func (p *Port) SetLossRate(rate float64) { p.coldBlock().lossRate = rate }

// SetCorruptRate makes the port flip one body octet (payload or zero
// tail, see frame.Frame.Corrupt) of each delivered frame with
// probability rate, exercising receivers' validation paths. Zero
// disables.
func (p *Port) SetCorruptRate(rate float64) { p.coldBlock().corruptRate = rate }

// rng returns the port's lazily created fault RNG stream. Only the
// fault paths draw from it, so scenarios without injected faults are
// bit-identical to ones where the stream was never created.
func (p *Port) rng() *sim.RNG {
	c := p.cold
	if c.faultRNG == nil {
		c.faultRNG = p.link.engineFor(p.end).RNG(fmt.Sprintf("faults/port/%s/%d", p.Owner.Name(), p.Index))
	}
	return c.faultRNG
}

// corruptAt draws whether corruption injection strikes f and returns
// the body octet it flips, or -1.
func (p *Port) corruptAt(f *frame.Frame) int {
	if c := p.cold; c != nil && c.corruptRate > 0 {
		if n := f.BodyLen(); n > 0 && p.rng().Bool(c.corruptRate) {
			return p.rng().Intn(n)
		}
	}
	return -1
}

// reclaim hands a network-owned frame destroyed by a failure to the
// OnDrop hook, if any.
func (p *Port) reclaim(f *frame.Frame) {
	if p.OnDrop != nil {
		p.OnDrop(f)
	}
}

// dropFlush traces and reclaims one frame flushed from the queue by a
// link-down or switch crash. The per-frame counters were already bumped
// in bulk by failFlush.
func (p *Port) dropFlush(f *frame.Frame) {
	if p.tr != nil {
		p.tr.Drop(p.Owner.Name(), p.Index, f, telemetry.CauseFlush)
	}
	p.reclaim(f)
}

// failFlush destroys everything volatile at the port — queued frames
// and any paused transmission — the shared teardown of link-down and
// switch-crash failures. A frame mid-serialization stays on the wire
// and keeps the port busy: serDone decides its fate and frees the port.
func (p *Port) failFlush() {
	if n := uint64(p.queue.Len()); n > 0 {
		p.coldBlock().flushedDrops += n
		p.queue.Drain(p.dropFlush)
	}
	p.busy = p.sending != nil
	if c := p.cold; c != nil {
		c.pausedTx.Cancel()
		c.pausedTx = sim.Event{}
	}
}

// Link is a full-duplex point-to-point cable. Each direction serializes
// independently: a frame occupies the direction for wirelen*8/rate, then
// arrives after the propagation delay. Links enforce Ethernet's 64-byte
// minimum on serialization time so tiny industrial payloads pay the real
// wire cost.
type Link struct {
	Name    string
	RateBps float64
	// Prop is fixed once the link is built: a port's frames reach the
	// far end in the order they left it (see Port.wire).
	Prop   sim.Duration
	engine *sim.Engine
	ports  [2]*Port
	up     bool

	// cross is non-nil when the link's two ends live on different shards
	// of a sim.ShardGroup; the propagation leg then crosses the shard
	// boundary as a timestamped group message instead of a local event.
	cross *crossLink

	// Delivered counts frames that completed traversal, per direction.
	// On a cross-shard link each direction's counter is written only by
	// the receiving shard's worker.
	Delivered [2]uint64
}

// crossLink holds the shard-boundary state of a Link whose ends live on
// different shards. Memory discipline: every word is written by exactly
// one shard's worker — sent[end] by the sending end's shard,
// l.Delivered[end] and the receiving port's counters by the receiving
// end's shard — and read by others only at window barriers, which the
// group's WaitGroup orders.
type crossLink struct {
	group *sim.ShardGroup
	shard [2]int         // shard index of each end
	eng   [2]*sim.Engine // engine of each end's shard
	// sent counts frames handed to the group per sending end; the
	// difference sent[e]-Delivered[e] is the cross-shard in-flight count
	// the conservation identity needs (see Accounting.AddCrossLink).
	sent [2]uint64
	// deliver is the link's group-message handler, built once: the frame
	// rides as the argument, and the int packs the sending end (bit 0)
	// with the corrupted body octet's index plus one (the bits above; 0
	// means no corruption).
	deliver func(arg any, aux int)
}

// engineFor returns the engine that owns the given end of the link: the
// per-shard engine for cross-shard links, the link's single engine
// otherwise.
func (l *Link) engineFor(end int) *sim.Engine {
	if l.cross != nil {
		return l.cross.eng[end]
	}
	return l.engine
}

// Cross reports whether the link spans two shards.
func (l *Link) Cross() bool { return l.cross != nil }

// ConnectCross wires two ports with a link whose ends live on two
// different shards, shardA and shardB, of group g. Serialization happens
// on the sending shard; the propagation leg becomes a timestamped
// inter-shard message, so the link's propagation delay must be at least
// the group's lookahead — the group panics on violation at the first
// send.
func ConnectCross(g *sim.ShardGroup, name string, a, b *Port, shardA, shardB int, rateBps float64, prop sim.Duration) *Link {
	l := &Link{}
	l.connectCross(g, name, a, b, shardA, shardB, rateBps, prop)
	return l
}

// connectCross is ConnectCross on a zero link in place: a network cuts
// its links from one slab.
func (l *Link) connectCross(g *sim.ShardGroup, name string, a, b *Port, shardA, shardB int, rateBps float64, prop sim.Duration) {
	if prop < g.Lookahead() {
		panic(fmt.Sprintf("simnet: cross-shard link %q propagation %v below group lookahead %v", name, prop, g.Lookahead()))
	}
	l.connect(nil, name, a, b, rateBps, prop)
	l.cross = &crossLink{
		group: g,
		shard: [2]int{shardA, shardB},
		eng:   [2]*sim.Engine{g.Shard(shardA), g.Shard(shardB)},
		deliver: func(arg any, aux int) {
			l.crossDeliver(aux&1, arg.(*frame.Frame), aux>>1-1)
		},
	}
}

const minWireBytes = 64

// Connect wires two ports with a new link. Either port already being
// connected panics: rewiring mid-simulation would corrupt in-flight state.
func Connect(engine *sim.Engine, name string, a, b *Port, rateBps float64, prop sim.Duration) *Link {
	l := &Link{}
	l.connect(engine, name, a, b, rateBps, prop)
	return l
}

// connect is Connect on a zero link in place.
func (l *Link) connect(engine *sim.Engine, name string, a, b *Port, rateBps float64, prop sim.Duration) {
	if a.link != nil || b.link != nil {
		panic(fmt.Sprintf("simnet: port already connected (link %q)", name))
	}
	if rateBps <= 0 {
		panic("simnet: non-positive link rate")
	}
	*l = Link{Name: name, RateBps: rateBps, Prop: prop, engine: engine, up: true}
	l.ports[0], l.ports[1] = a, b
	a.link, a.end = l, 0
	b.link, b.end = l, 1
}

// SetUp changes the link state. Taking a link down drops queued and
// in-flight frames — the failure model for §2.2. Cross-shard links do
// not support failure injection: flushing both ends would mutate two
// shards' state from one callback, and frames on the cross-shard wire
// have already been promised to the far shard's schedule. Partition
// fault domains so that injected links stay within one shard.
func (l *Link) SetUp(up bool) {
	if l.cross != nil {
		panic(fmt.Sprintf("simnet: SetUp on cross-shard link %q (failure injection is per-shard)", l.Name))
	}
	l.up = up
	if !up {
		for _, p := range l.ports {
			if p != nil {
				p.cut = p.sending != nil
				p.failFlush()
			}
		}
	}
}

// SerializationDelay returns the time a frame of wireLen bytes occupies
// the wire.
func (l *Link) SerializationDelay(wireLen int) sim.Duration {
	if wireLen < minWireBytes {
		wireLen = minWireBytes
	}
	return sim.Duration(float64(wireLen*8) / l.RateBps * 1e9)
}

// Send enqueues a frame for transmission out of port p. It returns false
// when the frame was dropped (full queue or downed link).
func (p *Port) Send(f *frame.Frame) bool {
	if p.link == nil || !p.link.up {
		p.coldBlock().downDrops++
		if p.tr != nil {
			p.tr.Drop(p.Owner.Name(), p.Index, f, telemetry.CauseLinkDown)
		}
		return false
	}
	if !p.queue.Push(f) {
		p.coldBlock().droppedPerClass[f.EffectivePriority()&7]++
		if p.tr != nil {
			p.tr.Drop(p.Owner.Name(), p.Index, f, telemetry.CauseOverflow)
		}
		return false
	}
	if d := p.queue.Len(); d > p.QueueHighWater {
		p.QueueHighWater = d
	}
	if p.tr != nil {
		p.tr.Enqueue(p.Owner.Name(), p.Index, f, p.queue.Len())
	}
	// A port paused on a closed gate re-evaluates on arrival: TAS gates
	// are per-queue, so a newly queued higher-priority frame whose gate
	// is open must not wait behind a gated lower-priority head.
	if c := p.cold; c != nil && c.pausedTx.Pending() {
		c.pausedTx.Cancel()
		c.pausedTx = sim.Event{}
		p.busy = false
	}
	if !p.busy {
		p.startNext()
	}
	return true
}

// startNext begins serializing the next eligible queued frame.
func (p *Port) startNext() {
	l := p.link
	if l == nil || !l.up {
		return
	}
	eng := l.engineFor(p.end)
	now := eng.Now()
	f := p.queue.Peek()
	if f == nil {
		p.busy = false
		return
	}
	wireLen := f.WireLen()
	ser := l.SerializationDelay(wireLen)
	c := p.cold
	if c != nil && c.shaper != nil {
		start, ok := c.shaper.NextEligible(now, f.EffectivePriority(), ser)
		if !ok {
			// Never eligible (e.g. frame longer than any gate window):
			// drop to avoid deadlock.
			dropped := p.queue.Pop()
			c.shaperDrops++
			if p.tr != nil {
				p.tr.Drop(p.Owner.Name(), p.Index, dropped, telemetry.CauseShaper)
			}
			p.reclaim(dropped)
			p.busy = false
			if p.queue.Len() > 0 {
				p.startNext()
			}
			return
		}
		if start > now {
			p.busy = true
			c.pausedTx = eng.Schedule(start, func() {
				c.pausedTx = sim.Event{}
				p.busy = false
				p.startNext()
			})
			return
		}
		c.shaper.OnTransmit(now, f.EffectivePriority(), wireLen, ser)
	}
	p.queue.Pop()
	p.busy = true
	p.TxFrames++
	p.TxBytes += uint64(wireLen)
	lost := c != nil && c.lossRate > 0 && p.rng().Bool(c.lossRate)
	if p.tr != nil {
		p.tr.TxStart(p.Owner.Name(), p.Index, f, int64(ser))
	}
	p.inFlight++
	p.sending, p.lost = f, lost
	eng.AfterCall(ser, (*serDoneEv)(p))
}

// serDoneEv and propDoneEv are a port as the sim.Handler of its two
// completion events.
type (
	serDoneEv  Port
	propDoneEv Port
)

func (e *serDoneEv) Fire()  { (*Port)(e).serDone() }
func (e *propDoneEv) Fire() { (*Port)(e).propDone() }

// serDone fires when the frame being sent finishes serializing: the
// wire is free for the next frame, and the frame either dies (link
// down at any instant of its serialization, loss injection) or starts
// propagating toward the far end.
func (p *Port) serDone() {
	f, lost, cut := p.sending, p.lost, p.cut
	p.sending, p.lost, p.cut = nil, false, false
	l := p.link
	switch {
	case !l.up || cut:
		// Link died mid-serialization: the frame dies on the wire.
		p.coldBlock().wireDrops++
		p.inFlight--
		if p.tr != nil {
			p.tr.Drop(p.Owner.Name(), p.Index, f, telemetry.CauseWire)
		}
		p.reclaim(f)
	case lost:
		p.cold.injectedDrops++
		p.inFlight--
		if p.tr != nil {
			p.tr.Drop(p.Owner.Name(), p.Index, f, telemetry.CauseInjected)
		}
		p.reclaim(f)
	case l.cross != nil:
		p.crossHandoff(f)
	default:
		p.wire.Push(f)
		l.engine.AfterCall(l.Prop, (*propDoneEv)(p))
	}
	p.busy = false
	if p.queue.Len() > 0 {
		p.startNext()
	}
}

// propDone fires when the frame at the head of the wire reaches the far
// end of the link: the last chance for the link to have died or
// corruption to strike, then the frame is counted delivered and handed
// to the receiving node.
func (p *Port) propDone() {
	l := p.link
	f := p.wire.Pop()
	wireLen := f.WireLen()
	if !l.up {
		p.coldBlock().wireDrops++
		p.inFlight--
		if p.tr != nil {
			p.tr.Drop(p.Owner.Name(), p.Index, f, telemetry.CauseWire)
		}
		p.reclaim(f)
		return
	}
	if i := p.corruptAt(f); i >= 0 {
		f.Corrupt(i)
		p.cold.corruptedFrames++
		if p.tr != nil {
			p.tr.Corrupt(p.Owner.Name(), p.Index, f)
		}
	}
	dst := l.ports[1-p.end]
	l.Delivered[p.end]++
	dst.RxFrames++
	dst.RxBytes += uint64(wireLen)
	p.inFlight--
	if dst.tr != nil {
		// CreatedAt is stamped by the originating host; for frames
		// injected straight into a port it is zero and the "latency"
		// degenerates to the absolute delivery time.
		dst.tr.Deliver(dst.Owner.Name(), dst.Index, f, int64(l.engine.Now())-f.Meta.CreatedAt)
	}
	dst.Owner.Receive(dst, f)
}

// crossHandoff replaces the propagation leg on a cross-shard link: the
// frame leaves this shard's accounting (inFlight--, sent++) and is
// promised to the far shard at now + propagation via the group outbox,
// as the link's prebuilt handler with the frame as its argument. The
// corruption draw happens here, on the sending shard, so the fault
// stream's draw order is a function of this shard's schedule alone —
// identical for every worker count.
func (p *Port) crossHandoff(f *frame.Frame) {
	l := p.link
	c := l.cross
	p.inFlight--
	src := p.end
	c.sent[src]++
	if p.tr != nil {
		// The causal stitch point: the sending shard's tracer assigns
		// the frame id (in its own id space) before the frame crosses,
		// so the destination shard's events reuse it and the merged
		// timeline reads as one lifecycle.
		p.tr.CrossShard(p.Owner.Name(), p.Index, f, c.shard[src], c.shard[1-src])
	}
	corrupt := p.corruptAt(f)
	at := c.eng[src].Now().Add(l.Prop)
	c.group.Send(c.shard[src], c.shard[1-src], at, c.deliver, f, (corrupt+1)<<1|src)
}

// crossDeliver completes a cross-shard traversal on the receiving
// shard's schedule. It mirrors propDone's delivery half; every counter
// it touches (including the sending port's CorruptedFrames and the
// link's Delivered[src]) is written only by the receiving shard, and
// tracing goes through the receiving port's tracer. A corrupted frame's
// sender already holds its cold block: the corruption rate lives there.
func (l *Link) crossDeliver(src int, f *frame.Frame, corrupt int) {
	c := l.cross
	sender := l.ports[src]
	dst := l.ports[1-src]
	if corrupt >= 0 {
		f.Corrupt(corrupt)
		sender.cold.corruptedFrames++
		if dst.tr != nil {
			dst.tr.Corrupt(sender.Owner.Name(), sender.Index, f)
		}
	}
	l.Delivered[src]++
	dst.RxFrames++
	dst.RxBytes += uint64(f.WireLen())
	if dst.tr != nil {
		dst.tr.Deliver(dst.Owner.Name(), dst.Index, f, int64(c.eng[1-src].Now())-f.Meta.CreatedAt)
	}
	dst.Owner.Receive(dst, f)
}
