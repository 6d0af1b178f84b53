package simnet

import (
	"fmt"
	"iter"
	"math/bits"
	"slices"

	"steelnet/internal/frame"
	"steelnet/internal/sim"
	"steelnet/internal/telemetry"
)

// Switch is a store-and-forward Ethernet switch with MAC learning,
// static FIB entries, per-port strict-priority egress queues and an
// optional TAS schedule per port. Forwarding latency is a fixed pipeline
// delay plus a small jitter term drawn from the switch's RNG stream —
// real cut-through ASICs are faster, but the paper's arguments only need
// the store-and-forward ordering of delays.
type Switch struct {
	name    string
	engine  *sim.Engine
	ports   []Port
	fib     fibTable
	blocked []bool // per port
	// defaultPort, when >= 0, is where unicast frames with no FIB entry
	// go instead of flooding — the "default route up" of structured
	// topologies, where flooding a 10k-switch campus for every unknown
	// MAC would be both wrong and ruinously slow.
	defaultPort int
	latency     sim.Duration
	jitter      sim.Duration
	// rng is the switch's jitter stream: jitterRNG, held inline, unless
	// another component of the same name registered the stream first.
	rng       *sim.RNG
	jitterRNG sim.RNG
	failed    bool

	// tr observes forwarding decisions; nil disables. fwd is the free
	// list of pipeline-delay contexts the switch shares with every
	// switch a network cut onto its engine, so the receive→forward hop
	// allocates nothing per frame.
	tr  *telemetry.Tracer
	fwd *fwdPool

	// OnControlFrame, when set, sees every received frame before normal
	// processing; returning true consumes it. Ring-redundancy managers
	// and other switch-resident protocols hook in here.
	OnControlFrame func(port int, f *frame.Frame) bool

	// FloodedFrames counts frames forwarded by flooding (unknown or
	// broadcast destination).
	FloodedFrames uint64
	// ForwardedFrames counts all frames forwarded (including floods).
	ForwardedFrames uint64
	// DroppedWhileFailed counts frames that arrived while the switch was
	// crashed (including control frames — a dead switch hears nothing).
	DroppedWhileFailed uint64
	// BlockedDrops counts data frames dying at a blocked ingress or
	// egress port; HairpinDrops counts frames whose FIB egress equals
	// their ingress. Both are normal switch behavior, not faults, but a
	// conservation audit needs them enumerated.
	BlockedDrops, HairpinDrops uint64
	// INTDrops counts frames destroyed because a strict INT stack was
	// already at MaxHops when this switch tried to stamp its transit
	// record.
	INTDrops uint64
}

// fibEntry is what the switch knows about one MAC: the port it lives
// behind and whether that was configured (AddStatic) or learned.
type fibEntry struct {
	port   int32
	static bool
}

// fibTable is the switch's forwarding table, an open-addressing hash
// from MAC to fibEntry with linear probing. A frame transit looks up
// two addresses (learn the source, forward on the destination); a Go
// map spent more time hashing and probing for that than the rest of
// the switch spent forwarding. Entries are only ever removed wholesale
// (FlushDynamic rebuilds the table), so probing needs no tombstones.
//
// A table may share its slots with other switches: every switch of a
// Blueprint's instances starts on the blueprint's image, and every
// other switch on emptyFIB. A shared table is never written; the first
// write gives the switch slots of its own. Shared tables hold static
// entries only, since a learned entry is a write.
//
// A slot is one uint64: fibKey(mac)+1 in the high 49 bits, then the
// static flag, then a 14-bit port. 0 marks an empty slot, and slots
// compare in MAC order.
type fibTable struct {
	slots  []uint64 // power-of-two length, at most half full
	shift  uint     // 64 - log2(len(slots))
	n      int
	shared bool // slots belong to a blueprint image or emptyFIB
}

const (
	fibPortBits = 14
	fibPortMask = 1<<fibPortBits - 1
	fibStatic   = 1 << fibPortBits
	fibKeyShift = fibPortBits + 1

	// MaxSwitchPorts is the most ports a switch can have: a FIB slot
	// holds a port in 14 bits.
	MaxSwitchPorts = fibPortMask
)

// fibKey packs a MAC big-endian into the table's integer key, so that
// key order is the address's byte order.
func fibKey(m frame.MAC) uint64 {
	return uint64(m[0])<<40 | uint64(m[1])<<32 | uint64(m[2])<<24 |
		uint64(m[3])<<16 | uint64(m[4])<<8 | uint64(m[5])
}

// slot packs e under key (fibKey + 1).
func (e fibEntry) slot(key uint64) uint64 {
	s := key<<fibKeyShift | uint64(e.port)
	if e.static {
		s |= fibStatic
	}
	return s
}

// slotEntry unpacks a slot's entry.
func slotEntry(s uint64) fibEntry {
	return fibEntry{port: int32(s & fibPortMask), static: s&fibStatic != 0}
}

// find returns the slot holding key (fibKey + 1), or the empty slot
// where it would go. Station addresses differ in their low bits only;
// the Fibonacci multiplier spreads those over the table's index bits.
func (t *fibTable) find(key uint64) *uint64 {
	mask := uint64(len(t.slots) - 1)
	for i := key * 0x9e3779b97f4a7c15 >> t.shift; ; i = (i + 1) & mask {
		if s := &t.slots[i]; *s>>fibKeyShift == key || *s == 0 {
			return s
		}
	}
}

// get returns mac's entry.
func (t *fibTable) get(mac frame.MAC) (fibEntry, bool) {
	s := *t.find(fibKey(mac) + 1)
	return slotEntry(s), s != 0
}

// put installs or replaces mac's entry; e.port must fit in 14 bits.
func (t *fibTable) put(mac frame.MAC, e fibEntry) {
	key := fibKey(mac) + 1
	s := t.find(key)
	if *s == 0 {
		if t.n++; t.n*2 > len(t.slots) {
			t.rebuild(make([]uint64, max(minFIBSlots, len(t.slots)*2)), false)
			s = t.find(key)
		}
	}
	if t.shared {
		t.slots, t.shared = slices.Clone(t.slots), false
		s = t.find(key)
	}
	*s = e.slot(key)
}

// minFIBSlots is the smallest table put grows a FIB to.
const minFIBSlots = 8

// emptyFIB is the table a switch without a blueprint image starts on:
// one slot that stays empty, so that a switch holds no table of its own
// until it needs one.
var emptyFIB = fibTable{slots: make([]uint64, 1), shift: 64, shared: true}

// reserveSlots is the table size reserve(n) moves t to, 0 when t
// already holds n entries without growing: the size put's doubling
// would reach after n inserts, so a reserved table is the same as a
// grown one, allocated once.
func (t *fibTable) reserveSlots(n int) int {
	size := minFIBSlots
	for size < 2*n {
		size *= 2
	}
	if n > 0 && size > len(t.slots) {
		return size
	}
	return 0
}

// reserve sizes the table for n entries in all, so that inserting them
// grows nothing.
func (t *fibTable) reserve(n int) {
	if size := t.reserveSlots(n); size > 0 {
		t.rebuild(make([]uint64, size), false)
	}
}

// rebuild re-hashes the entries into slots, a zeroed power-of-two
// array the table owns from now on, keeping only the static ones if
// staticOnly.
func (t *fibTable) rebuild(slots []uint64, staticOnly bool) {
	old := t.slots
	t.slots, t.shared = slots, false
	t.shift = uint(64 - bits.TrailingZeros(uint(len(slots))))
	for _, s := range old {
		switch {
		case s == 0:
		case !staticOnly || s&fibStatic != 0:
			*t.find(s >> fibKeyShift) = s
		default:
			t.n--
		}
	}
}

// SwitchConfig sets a switch's forwarding-latency model.
type SwitchConfig struct {
	// Latency is the fixed pipeline (lookup + store-and-forward) delay.
	Latency sim.Duration
	// Jitter is the standard deviation of the latency noise.
	Jitter sim.Duration
}

// DefaultSwitchConfig is a contemporary industrial GbE switch: ~2 µs
// pipeline, tens of ns of variation.
var DefaultSwitchConfig = SwitchConfig{Latency: 2 * sim.Microsecond, Jitter: 50 * sim.Nanosecond}

// NewSwitch creates a switch with nports ports, at most MaxSwitchPorts.
func NewSwitch(engine *sim.Engine, name string, nports int, cfg SwitchConfig) *Switch {
	s := &Switch{}
	s.init(engine, name, make([]Port, nports), make([]bool, nports), emptyFIB, new(fwdPool), cfg)
	return s
}

// init readies a zero switch in place on ports and blocked, zero slices
// of one length it owns from now on (arrays of its own, or its cuts of a
// network's slabs), with fib as its starting table and fwd as its
// forwarding contexts' free list, which only switches on engine may
// share. It panics above MaxSwitchPorts ports.
func (s *Switch) init(engine *sim.Engine, name string, ports []Port, blocked []bool, fib fibTable, fwd *fwdPool, cfg SwitchConfig) {
	if len(ports) > MaxSwitchPorts {
		panic(fmt.Sprintf("simnet: switch %s: %d ports, at most %d", name, len(ports), MaxSwitchPorts))
	}
	*s = Switch{
		name:        name,
		engine:      engine,
		ports:       ports,
		blocked:     blocked,
		fib:         fib,
		defaultPort: -1,
		latency:     cfg.Latency,
		jitter:      cfg.Jitter,
		fwd:         fwd,
	}
	s.rng = engine.RNGAt("switch/"+name, &s.jitterRNG)
	for i := range ports {
		ports[i].init(s, i)
	}
}

// Name implements Node.
func (s *Switch) Name() string { return s.name }

// Port returns port i.
func (s *Switch) Port(i int) *Port {
	if i < 0 || i >= len(s.ports) {
		panic(fmt.Sprintf("simnet: switch %s has no port %d", s.name, i))
	}
	return &s.ports[i]
}

// NumPorts returns the port count.
func (s *Switch) NumPorts() int { return len(s.ports) }

// SetTracer attaches a lifecycle tracer to the switch and all its ports.
func (s *Switch) SetTracer(t *telemetry.Tracer) {
	s.tr = t
	for i := range s.ports {
		s.ports[i].SetTracer(t)
	}
}

// SetQueueDepth bounds every port's egress queue at perClassLimit
// frames per priority class. Call before traffic flows.
func (s *Switch) SetQueueDepth(perClassLimit int) {
	for i := range s.ports {
		s.ports[i].SetQueueLimit(perClassLimit)
	}
}

// AddStatic installs a permanent FIB entry mapping mac to port.
func (s *Switch) AddStatic(mac frame.MAC, port int) {
	if port < 0 || port > MaxSwitchPorts {
		panic(fmt.Sprintf("simnet: switch %s: FIB port %d out of range", s.name, port))
	}
	s.fib.put(mac, fibEntry{port: int32(port), static: true})
}

// ReserveFIBs sizes the FIB of every switch fibs yields for the number
// of MACs yielded with it, so that installing that many grows the table
// no further. Every table it sizes is cut from one slab: a campus sizes
// ten thousand FIBs in one allocation. fibs is walked twice, to add up
// the slab and to cut it, and must yield the same pairs both times. A
// table that outgrows its cut moves to an array of its own, as any FIB
// does. Lookups and the folded state do not depend on a table's size or
// where it lives.
func ReserveFIBs(fibs iter.Seq2[*Switch, int]) {
	total := 0
	for s, n := range fibs {
		total += s.fib.reserveSlots(n)
	}
	slab := make([]uint64, total)
	for s, n := range fibs {
		if size := s.fib.reserveSlots(n); size > 0 {
			s.fib.rebuild(slab[:size:size], false)
			slab = slab[size:]
		}
	}
}

// SetDefaultPort routes unicast frames with no FIB entry out of port
// instead of flooding. Pass -1 to restore flooding. Broadcast and
// multicast still flood.
func (s *Switch) SetDefaultPort(port int) {
	if port >= len(s.ports) {
		panic(fmt.Sprintf("simnet: switch %s has no port %d", s.name, port))
	}
	if port < 0 {
		port = -1
	}
	s.defaultPort = port
}

// LookupPort returns the FIB port for mac, or -1 when unknown.
func (s *Switch) LookupPort(mac frame.MAC) int {
	if e, ok := s.fib.get(mac); ok {
		return int(e.port)
	}
	return -1
}

// SetPortBlocked sets a port's data-plane blocking state. Blocked ports
// drop data frames in both directions but still carry control frames
// consumed by OnControlFrame — the primitive ring redundancy needs to
// keep a physical loop from becoming a forwarding loop.
func (s *Switch) SetPortBlocked(port int, blocked bool) {
	if port < 0 || port >= len(s.ports) {
		panic(fmt.Sprintf("simnet: switch %s has no port %d", s.name, port))
	}
	s.blocked[port] = blocked
}

// PortBlocked reports a port's blocking state; a port the switch does
// not have is not blocked.
func (s *Switch) PortBlocked(port int) bool {
	return port >= 0 && port < len(s.blocked) && s.blocked[port]
}

// FlushDynamic clears every learned (non-static) FIB entry — what a
// topology-change notification triggers so traffic can re-learn paths.
// A shared table has learned nothing, so it stays as it is.
func (s *Switch) FlushDynamic() {
	if !s.fib.shared {
		s.fib.rebuild(make([]uint64, len(s.fib.slots)), true)
	}
}

// Fail crashes the switch: everything volatile dies — queued egress
// frames, paused transmissions, the learned FIB — and until Restart the
// switch neither forwards nor answers control frames. Attached links
// stay up (the failure is the box, not the cable), which is exactly the
// silent-peer signature ring-redundancy protocols must detect from
// missing test frames.
func (s *Switch) Fail() {
	if s.failed {
		return
	}
	s.failed = true
	for i := range s.ports {
		s.ports[i].failFlush()
	}
	s.FlushDynamic()
}

// Restart brings a crashed switch back cold: empty learned FIB, empty
// queues, same static entries and blocking state (those model
// configuration, which survives reboot).
func (s *Switch) Restart() { s.failed = false }

// Failed reports whether the switch is currently crashed.
func (s *Switch) Failed() bool { return s.failed }

// fwdCtx carries one frame across a switch's pipeline delay. Jitter
// makes those delays overtake each other, so unlike a port's wire the
// frames cannot share one event in arrival order: each delay is an
// event whose handler is its own context. Contexts recycle through a
// LIFO free list, one per engine of a network (a NewSwitch has its
// own), so the receive→forward hop allocates nothing in steady state
// and reuses the context released last.
type fwdCtx struct {
	s *Switch
	f *frame.Frame
	// intIn is the ingress timestamp for the frame's INT transit record,
	// captured at Receive; meaningful only when f carries a stack.
	intIn int64
	in    int
	next  *fwdCtx
}

// fwdPool is a free list of forwarding contexts.
type fwdPool struct{ free *fwdCtx }

func (p *fwdPool) get() *fwdCtx {
	c := p.free
	if c == nil {
		return &fwdCtx{}
	}
	p.free = c.next
	c.next = nil
	return c
}

func (p *fwdPool) put(c *fwdCtx) {
	c.f = nil
	c.intIn = 0
	c.next = p.free
	p.free = c
}

// Fire ends the pipeline delay: it unpacks and recycles the context,
// then forwards.
func (c *fwdCtx) Fire() {
	s, in, f, intIn := c.s, c.in, c.f, c.intIn
	s.fwd.put(c)
	s.forward(in, f, intIn)
}

// Receive implements Node: learn, then forward after the pipeline delay.
func (s *Switch) Receive(port *Port, f *frame.Frame) {
	if s.failed {
		s.DroppedWhileFailed++
		port.coldBlock().failedDrops++
		if s.tr != nil {
			s.tr.Drop(s.name, port.Index, f, telemetry.CauseSwitchFailed)
		}
		port.reclaim(f)
		return
	}
	if s.OnControlFrame != nil && s.OnControlFrame(port.Index, f) {
		return
	}
	if s.blocked[port.Index] {
		s.BlockedDrops++
		if s.tr != nil {
			s.tr.Drop(s.name, port.Index, f, telemetry.CauseBlocked)
		}
		port.reclaim(f) // data frames die at blocked ports
		return
	}
	// Learn the source unless pinned statically; a frame from where the
	// FIB already points writes nothing.
	if !f.Src.IsMulticast() {
		if e, ok := s.fib.get(f.Src); !ok || (!e.static && int(e.port) != port.Index) {
			s.fib.put(f.Src, fibEntry{port: int32(port.Index)})
		}
	}
	d := s.latency
	if s.jitter > 0 {
		d = s.rng.NormDuration(s.latency, s.jitter, s.latency/2)
	}
	c := s.fwd.get()
	c.s, c.f, c.in = s, f, port.Index
	if f.INT != nil {
		c.intIn = int64(s.engine.Now())
	}
	s.engine.After(d, c)
}

// stampINT pushes this switch's transit record onto f's INT stack:
// the ingress/egress pipeline instants, the depth of the chosen egress
// queue in the frame's priority class, and a drop-risk flag when that
// class sits at or above 3/4 of its bound. It reports false when the
// frame must die (strict stack already full); lenient stacks forward
// unstamped.
func (s *Switch) stampINT(f *frame.Frame, intIn int64, out int) bool {
	q := &s.ports[out].queue
	depth := q.ClassLen(f.EffectivePriority())
	ok := f.INT.PushHop(frame.INTHop{
		Node:       s.name,
		IngressNS:  intIn,
		EgressNS:   int64(s.engine.Now()),
		QueueDepth: int32(depth),
		DropRisk:   depth*4 >= q.Limit()*3,
	})
	return ok || !f.INT.Strict
}

// dropINT destroys a frame whose strict INT stack overflowed at egress
// port out. The frame dies inside the switch — after the upstream link
// counted it delivered — so, like FailedDrops, these sit outside the
// egress-port conservation identity by construction.
func (s *Switch) dropINT(inPort, out int, f *frame.Frame) {
	s.INTDrops++
	s.ports[out].CountINTDrop()
	if s.tr != nil {
		s.tr.Drop(s.name, out, f, telemetry.CauseINT)
	}
	s.ports[inPort].reclaim(f)
}

func (s *Switch) forward(inPort int, f *frame.Frame, intIn int64) {
	if s.failed {
		// Crashed mid-pipeline: the frame was in the store-and-forward
		// buffer and dies with the switch.
		s.DroppedWhileFailed++
		s.ports[inPort].coldBlock().failedDrops++
		if s.tr != nil {
			s.tr.Drop(s.name, inPort, f, telemetry.CauseSwitchFailed)
		}
		s.ports[inPort].reclaim(f)
		return
	}
	if f.Dst.IsBroadcast() || f.Dst.IsMulticast() {
		s.flood(inPort, f, intIn)
		return
	}
	out := s.defaultPort
	if e, ok := s.fib.get(f.Dst); ok {
		out = int(e.port)
	} else if out < 0 {
		s.flood(inPort, f, intIn)
		return
	}
	if out == inPort || s.blocked[out] {
		// Hairpin or blocked egress; drop like a real switch.
		if out == inPort {
			s.HairpinDrops++
			if s.tr != nil {
				s.tr.Drop(s.name, inPort, f, telemetry.CauseHairpin)
			}
		} else {
			s.BlockedDrops++
			if s.tr != nil {
				s.tr.Drop(s.name, out, f, telemetry.CauseBlocked)
			}
		}
		s.ports[inPort].reclaim(f)
		return
	}
	if f.INT != nil && !s.stampINT(f, intIn, out) {
		s.dropINT(inPort, out, f)
		return
	}
	s.ForwardedFrames++
	if s.tr != nil {
		s.tr.Forward(s.name, inPort, out, f)
	}
	if !s.ports[out].Send(f) {
		// The egress queue refused the frame; the switch is its owner
		// here, so it reclaims on the spot through the egress hook.
		s.ports[out].reclaim(f)
	}
}

func (s *Switch) flood(inPort int, f *frame.Frame, intIn int64) {
	s.FloodedFrames++
	if s.tr != nil {
		legs := 0
		for i := range s.ports {
			if i != inPort && s.ports[i].Connected() && !s.blocked[i] {
				legs++
			}
		}
		s.tr.Flood(s.name, inPort, f, legs)
	}
	for i := range s.ports {
		p := &s.ports[i]
		if i == inPort || !p.Connected() || s.blocked[i] {
			continue
		}
		g := f.Clone()
		// Each leg stamps its own copy: the clones carry independent
		// stacks, so per-leg egress queue depths stay distinguishable.
		if g.INT != nil && !s.stampINT(g, intIn, i) {
			s.dropINT(inPort, i, g)
			continue
		}
		s.ForwardedFrames++
		if !p.Send(g) {
			p.reclaim(g)
		}
	}
	// Every leg got a copy; the original dies at the ingress port.
	s.ports[inPort].reclaim(f)
}
