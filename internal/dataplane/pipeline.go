// Package dataplane implements the programmable match-action switch
// InstaPLC (§4) runs on — the simulated counterpart of the paper's DPDK
// SWX + P4 pipeline. A Pipeline is a multi-port forwarding element whose
// behaviour is entirely table-driven: a parser extracts protocol fields
// (including PROFINET frame ids), ordered tables match on them with
// priorities and wildcards, and actions drop, output (with
// per-port header rewrites — the egress modification InstaPLC needs to
// retarget cyclic frames between redundant controllers), or punt to the
// control plane as packet-ins. Entries support idle timeouts, the
// data-plane watchdog primitive that lets InstaPLC detect a dead primary
// without any control-plane polling.
package dataplane

import (
	"encoding/binary"
	"fmt"

	"steelnet/internal/frame"
	"steelnet/internal/profinet"
	"steelnet/internal/sim"
	"steelnet/internal/simnet"
	"steelnet/internal/telemetry"
)

// Fields is the parsed header view the pipeline matches on.
type Fields struct {
	InPort int
	Src    frame.MAC
	// PNValid is true for parseable PROFINET payloads; FrameID is then
	// populated.
	PNValid bool
	FrameID profinet.FrameID
}

// Parse extracts Fields from a frame arriving on port inPort.
func Parse(inPort int, f *frame.Frame) Fields {
	fl := Fields{InPort: inPort, Src: f.Src}
	if f.Type != frame.TypeProfinet || len(f.Payload) < 2 {
		return fl
	}
	id, err := profinet.PeekFrameID(f.Payload)
	if err != nil {
		return fl
	}
	fl.PNValid = true
	fl.FrameID = id
	return fl
}

// Match is a ternary match: nil fields are wildcards.
type Match struct {
	InPort  *int
	Src     *frame.MAC
	FrameID *profinet.FrameID
}

// Matches reports whether fl satisfies every non-nil constraint.
func (m Match) Matches(fl Fields) bool {
	if m.InPort != nil && *m.InPort != fl.InPort {
		return false
	}
	if m.Src != nil && *m.Src != fl.Src {
		return false
	}
	if m.FrameID != nil && (!fl.PNValid || *m.FrameID != fl.FrameID) {
		return false
	}
	return true
}

// Ptr is a small helper for building Match literals.
func Ptr[T any](v T) *T { return &v }

// ActionKind selects what an entry does.
type ActionKind int

// Action kinds.
const (
	// ActDrop discards the frame.
	ActDrop ActionKind = iota
	// ActOutput emits the frame on one or more ports, each with
	// optional header rewrites.
	ActOutput
	// ActPacketIn punts the frame to the control plane.
	ActPacketIn
	// ActINTSource attaches an in-band telemetry stack to the frame
	// (P4 INT source role), then continues to the next table. The
	// stack's source label is the pipeline's ingress-port label, so
	// sink-side path digests distinguish which port traffic entered on
	// — the failover observable.
	ActINTSource
)

// INTCollector consumes terminated INT stacks. It is structurally
// identical to simnet.INTSink, so one intnet.Collector serves host
// sinks and data-plane egress sinks alike.
type INTCollector interface {
	SinkINT(node string, f *frame.Frame, nowNS int64)
}

// PortAction is one output leg with optional egress rewrites. INTSink,
// when set, terminates the clone's INT stack at egress (P4-faithful:
// the sink strips telemetry before the frame leaves toward a host).
type PortAction struct {
	Port    int
	SetDst  *frame.MAC
	SetARID *uint32
	INTSink INTCollector
}

// Action is what a matching entry performs.
type Action struct {
	Kind    ActionKind
	Outputs []PortAction
	// INTFlow is the flow id of the stacks ActINTSource attaches.
	INTFlow uint32
}

// Drop is the drop action.
func Drop() Action { return Action{Kind: ActDrop} }

// Output builds a simple single-port output action.
func Output(port int) Action {
	return Action{Kind: ActOutput, Outputs: []PortAction{{Port: port}}}
}

// PacketIn builds a punt-to-controller action.
func PacketIn() Action { return Action{Kind: ActPacketIn} }

// INTSource builds a source action: matching frames gain a lenient
// telemetry stack for flow with room for frame.DefaultINTMaxHops
// records.
func INTSource(flow uint32) Action { return Action{Kind: ActINTSource, INTFlow: flow} }

// Entry is one table row.
type Entry struct {
	ID       int
	Priority int // higher wins
	Match    Match
	Action   Action
	// IdleTimeout, when positive, arms a data-plane idle watchdog: if
	// the entry goes unmatched for the duration, OnIdle fires once.
	IdleTimeout sim.Duration
	OnIdle      func(*Entry)
	// OnMatch, when set, observes every matching frame — the
	// clone-to-CPU/digest primitive control planes use to monitor
	// data-plane traffic without punting it.
	OnMatch func(*Entry, *frame.Frame)

	// Hits counts matched frames.
	Hits uint64

	idleTimer sim.Event
	idleFn    func() // the watchdog's expiry callback, built at the first arm
	table     *Table
	deleted   bool
}

// Table is an ordered set of entries with a default action.
type Table struct {
	Name    string
	Default Action
	entries []*Entry
	nextID  int
	pl      *Pipeline
}

// Insert adds an entry and returns it. Entries with equal priority match
// in insertion order.
func (t *Table) Insert(e Entry) *Entry {
	e.ID = t.nextID
	t.nextID++
	ent := &e
	ent.table = t
	// Keep sorted by priority descending, stable.
	pos := len(t.entries)
	for i, x := range t.entries {
		if x.Priority < ent.Priority {
			pos = i
			break
		}
	}
	t.entries = append(t.entries, nil)
	copy(t.entries[pos+1:], t.entries[pos:])
	t.entries[pos] = ent
	if ent.IdleTimeout > 0 {
		t.pl.armIdle(ent)
	}
	return ent
}

// Delete removes an entry.
func (t *Table) Delete(e *Entry) {
	for i, x := range t.entries {
		if x == e {
			t.entries = append(t.entries[:i], t.entries[i+1:]...)
			break
		}
	}
	e.deleted = true
	e.idleTimer.Cancel()
}

// Len returns the number of entries.
func (t *Table) Len() int { return len(t.entries) }

// lookup returns the first matching entry, or nil.
func (t *Table) lookup(fl Fields) *Entry {
	for _, e := range t.entries {
		if e.Match.Matches(fl) {
			return e
		}
	}
	return nil
}

// PacketInEvent is a frame punted to the control plane.
type PacketInEvent struct {
	Fields Fields
	Frame  *frame.Frame
}

// Config sets the pipeline's forwarding-latency model.
type Config struct {
	Latency sim.Duration
	Jitter  sim.Duration
}

// DefaultConfig models a software (DPDK-class) pipeline: ~3 µs, small
// jitter.
var DefaultConfig = Config{Latency: 3 * sim.Microsecond, Jitter: 100 * sim.Nanosecond}

// Pipeline is the forwarding element.
type Pipeline struct {
	name   string
	engine *sim.Engine
	ports  []*simnet.Port
	tables []*Table
	cfg    Config
	rng    *sim.RNG
	tr     *telemetry.Tracer

	// inLabels/outLabels are per-port node labels ("name.inN" /
	// "name.outN"), prebuilt so INT stamping never constructs strings.
	inLabels, outLabels []string
	// intSeq is the per-flow sequence counter behind ActINTSource.
	intSeq map[uint32]uint32

	// pool takes every frame the pipeline itself ends (drop verdicts,
	// strict-INT overflows, refused egress) and every INT stack it
	// terminates, and supplies the stacks it sources and the copies of
	// multi-leg outputs. rxJobs is the free list of in-flight receptions.
	pool   *frame.Pool
	rxJobs *rxJob

	// OnPacketIn receives punted frames (the control-plane channel). The
	// handler owns the frame: it re-injects it or returns it to Pool().
	OnPacketIn func(PacketInEvent)

	// Processed, Dropped, PacketIns count pipeline verdicts.
	Processed, Dropped, PacketIns uint64
	// INTDrops counts frames destroyed because a strict INT stack was
	// full when the pipeline tried to stamp its transit record.
	INTDrops uint64
}

// New creates a pipeline with nports ports.
func New(engine *sim.Engine, name string, nports int, cfg Config) *Pipeline {
	p := &Pipeline{name: name, engine: engine, cfg: cfg, rng: engine.RNG("dataplane/" + name),
		intSeq: make(map[uint32]uint32), pool: &frame.Pool{}}
	for i := 0; i < nports; i++ {
		p.ports = append(p.ports, simnet.NewPort(p, i))
		p.inLabels = append(p.inLabels, fmt.Sprintf("%s.in%d", name, i))
		p.outLabels = append(p.outLabels, fmt.Sprintf("%s.out%d", name, i))
	}
	return p
}

// Name implements simnet.Node.
func (p *Pipeline) Name() string { return p.name }

// Port returns port i.
func (p *Pipeline) Port(i int) *simnet.Port {
	if i < 0 || i >= len(p.ports) {
		panic(fmt.Sprintf("dataplane: %s has no port %d", p.name, i))
	}
	return p.ports[i]
}

// NumPorts returns the port count.
func (p *Pipeline) NumPorts() int { return len(p.ports) }

// Pool returns the free list the pipeline recycles frames through; its
// control plane builds packet-outs from it and returns consumed
// packet-ins to it.
func (p *Pipeline) Pool() *frame.Pool { return p.pool }

// UsePool replaces the pipeline's frame pool with the free list it
// shares with the stations around it, and returns what the network
// destroys at the pipeline's ports to it. Call before traffic starts.
func (p *Pipeline) UsePool(pool *frame.Pool) {
	p.pool = pool
	for _, port := range p.ports {
		port.OnDrop = pool.Put
	}
}

// SetTracer attaches a lifecycle tracer to the pipeline and its ports.
func (p *Pipeline) SetTracer(t *telemetry.Tracer) {
	p.tr = t
	for _, port := range p.ports {
		port.SetTracer(t)
	}
}

// RegisterMetrics exposes the pipeline's verdict counters and all its
// ports' counters on r.
func (p *Pipeline) RegisterMetrics(r *telemetry.Registry) {
	ls := telemetry.L("node", p.name)
	r.Counter("steelnet_pipeline_processed_total", ls, "frames that entered the pipeline", func() uint64 { return p.Processed })
	r.Counter("steelnet_pipeline_dropped_total", ls, "frames dropped by table verdict", func() uint64 { return p.Dropped })
	r.Counter("steelnet_pipeline_packet_ins_total", ls, "frames punted to the control plane", func() uint64 { return p.PacketIns })
	r.Counter("steelnet_pipeline_int_drops_total", ls, "frames dropped on strict INT stack overflow", func() uint64 { return p.INTDrops })
	for _, port := range p.ports {
		simnet.RegisterPortMetrics(r, port)
	}
}

// AddTable appends a table with the given default action and returns it.
func (p *Pipeline) AddTable(name string, def Action) *Table {
	t := &Table{Name: name, Default: def, pl: p}
	p.tables = append(p.tables, t)
	return t
}

// rxJob carries one received frame across the pipeline's processing
// latency. Like simnet's flight it owns its closure and recycles
// through a per-pipeline free list.
type rxJob struct {
	p    *Pipeline
	in   int
	rxNS int64
	f    *frame.Frame
	run  func()
	next *rxJob
}

// Receive implements simnet.Node: parse, walk tables, act. The receive
// instant is carried to process so INT transit records can report the
// frame's true pipeline residence time.
func (p *Pipeline) Receive(port *simnet.Port, f *frame.Frame) {
	d := p.cfg.Latency
	if p.cfg.Jitter > 0 {
		d = p.rng.NormDuration(p.cfg.Latency, p.cfg.Jitter, p.cfg.Latency/2)
	}
	j := p.rxJobs
	if j == nil {
		j = &rxJob{p: p}
		j.run = func() { j.p.processJob(j) }
	} else {
		p.rxJobs = j.next
	}
	j.in, j.rxNS, j.f = port.Index, int64(p.engine.Now()), f
	p.engine.After(d, j.run)
}

// processJob unpacks and recycles the job, then processes the frame.
func (p *Pipeline) processJob(j *rxJob) {
	in, rxNS, f := j.in, j.rxNS, j.f
	j.f, j.next = nil, p.rxJobs
	p.rxJobs = j
	p.process(in, rxNS, f)
}

func (p *Pipeline) process(inPort int, rxNS int64, f *frame.Frame) {
	p.Processed++
	fl := Parse(inPort, f)
	for _, t := range p.tables {
		var act Action
		if e := t.lookup(fl); e != nil {
			e.Hits++
			if e.IdleTimeout > 0 {
				p.armIdle(e)
			}
			if e.OnMatch != nil {
				e.OnMatch(e, f)
			}
			act = e.Action
		} else {
			act = t.Default
		}
		switch act.Kind {
		case ActINTSource:
			// Idempotent: a frame that already carries a stack (e.g. one
			// re-walked after a control-plane detour) keeps its original
			// source record.
			if f.INT == nil {
				p.intSeq[act.INTFlow]++
				p.pool.AttachINT(f, p.inLabels[inPort], act.INTFlow, p.intSeq[act.INTFlow], rxNS, frame.DefaultINTMaxHops)
			}
			continue
		case ActDrop:
			p.drop(inPort, f)
			return
		case ActPacketIn:
			p.PacketIns++
			if p.tr != nil {
				p.tr.PacketIn(p.name, inPort, f)
			}
			// In-band telemetry ends where the data plane ends: a punted
			// frame sheds its INT stack before the control plane sees it,
			// so slow-path reinjections never leak telemetry bytes onto
			// the wire.
			p.pool.StripINT(f)
			if p.OnPacketIn != nil {
				p.OnPacketIn(PacketInEvent{Fields: fl, Frame: f})
			} else {
				p.pool.Put(f)
			}
			return
		case ActOutput:
			p.emit(act.Outputs, rxNS, f)
			return
		}
	}
	// Fell off the last table: drop, like a pipeline with no verdict.
	p.drop(inPort, f)
}

// drop ends f by table verdict.
func (p *Pipeline) drop(inPort int, f *frame.Frame) {
	p.Dropped++
	if p.tr != nil {
		p.tr.Drop(p.name, inPort, f, telemetry.CausePipeline)
	}
	p.pool.Put(f)
}

// emit sends the frame out each leg with that leg's egress rewrites.
// The frame itself travels on the last leg; every earlier leg gets a
// pooled copy, and a frame no leg takes returns to the pool. INT-bearing
// frames get the pipeline's transit record stamped per leg; legs with
// an INTSink terminate the stack at egress.
func (p *Pipeline) emit(legs []PortAction, rxNS int64, f *frame.Frame) {
	last := -1
	for i, leg := range legs {
		if leg.Port >= 0 && leg.Port < len(p.ports) {
			last = i
		}
	}
	if last < 0 {
		p.pool.Put(f)
		return
	}
	for i, leg := range legs[:last+1] {
		if leg.Port < 0 || leg.Port >= len(p.ports) {
			continue
		}
		g := f
		if i < last {
			g = p.pool.Clone(f)
		}
		if leg.SetDst != nil {
			g.Dst = *leg.SetDst
		}
		if leg.SetARID != nil {
			rewriteARID(g, *leg.SetARID)
		}
		if g.INT != nil {
			if !p.stampINT(g, rxNS, leg.Port) {
				p.INTDrops++
				p.ports[leg.Port].INTDrops++
				if p.tr != nil {
					p.tr.Drop(p.name, leg.Port, g, telemetry.CauseINT)
				}
				p.pool.Put(g)
				continue
			}
			if leg.INTSink != nil {
				leg.INTSink.SinkINT(p.outLabels[leg.Port], g, int64(p.engine.Now()))
				p.pool.StripINT(g)
			}
		}
		p.Inject(leg.Port, g)
	}
}

// stampINT pushes the pipeline's transit record onto g's stack. A frame
// the pipeline itself sourced this pass has IngressNS == SourceNS, so
// its transit hop degenerates to the residual in-pipeline time — never
// negative. It reports false when a strict stack is full.
func (p *Pipeline) stampINT(g *frame.Frame, rxNS int64, out int) bool {
	in := rxNS
	if g.INT.SourceNS > in {
		in = g.INT.SourceNS
	}
	ok := g.INT.PushHop(frame.INTHop{
		Node:       p.name,
		IngressNS:  in,
		EgressNS:   int64(p.engine.Now()),
		QueueDepth: int32(p.ports[out].QueueDepth()),
	})
	return ok || !g.INT.Strict
}

// rewriteARID patches the AR id of a PROFINET payload in place (egress
// header rewrite). Non-PROFINET or short payloads are left untouched.
func rewriteARID(f *frame.Frame, arid uint32) {
	if f.Type != frame.TypeProfinet || len(f.Payload) < 6 {
		return
	}
	binary.BigEndian.PutUint32(f.Payload[2:], arid)
}

// Inject performs a packet-out: the control plane emits a frame on a
// port, bypassing the tables. The pipeline takes the frame over; one
// the egress queue refuses goes to the pool.
func (p *Pipeline) Inject(port int, f *frame.Frame) {
	if !p.Port(port).Send(f) {
		p.pool.Put(f)
	}
}

// armIdle (re)arms an entry's idle watchdog.
func (p *Pipeline) armIdle(e *Entry) {
	e.idleTimer.Cancel()
	if e.idleFn == nil {
		e.idleFn = func() {
			if !e.deleted && e.OnIdle != nil {
				e.OnIdle(e)
			}
		}
	}
	e.idleTimer = p.engine.After(e.IdleTimeout, e.idleFn)
}
