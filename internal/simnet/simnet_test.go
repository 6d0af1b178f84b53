package simnet

import (
	"testing"

	"steelnet/internal/checkpoint"
	"steelnet/internal/frame"
	"steelnet/internal/sim"
	"steelnet/internal/topo"
)

// pair wires two hosts with a direct link and returns them.
func pair(e *sim.Engine, rateBps float64, prop sim.Duration) (*Host, *Host) {
	a := NewHost(e, "a", frame.NewMAC(1))
	b := NewHost(e, "b", frame.NewMAC(2))
	Connect(e, "ab", a.Port(), b.Port(), rateBps, prop)
	return a, b
}

func TestLinkDeliversFrame(t *testing.T) {
	e := sim.NewEngine(1)
	a, b := pair(e, 1e9, 500*sim.Nanosecond)
	var got *frame.Frame
	var at sim.Time
	b.OnReceive(func(f *frame.Frame) { got = f; at = e.Now() })
	f := &frame.Frame{Dst: b.MAC(), Type: frame.TypeBenchEcho, Payload: make([]byte, 50)}
	if !a.Send(f) {
		t.Fatal("send failed")
	}
	e.Run()
	if got == nil {
		t.Fatal("frame not delivered")
	}
	// 64B min at 1 Gb/s = 512 ns serialization + 500 ns prop.
	if at != sim.Time(1012) {
		t.Fatalf("arrival at %v, want 1012ns", at)
	}
	if got.Src != a.MAC() {
		t.Fatal("source MAC not stamped")
	}
}

func TestSerializationUsesMinFrameSize(t *testing.T) {
	e := sim.NewEngine(1)
	l := &Link{RateBps: 1e9}
	if d := l.SerializationDelay(10); d != 512*sim.Nanosecond {
		t.Fatalf("min-size serialization = %v", d)
	}
	if d := l.SerializationDelay(125); d != 1000*sim.Nanosecond {
		t.Fatalf("125B serialization = %v", d)
	}
	_ = e
}

func TestLinkSerializesSequentially(t *testing.T) {
	e := sim.NewEngine(1)
	a, b := pair(e, 1e9, 0)
	var arrivals []sim.Time
	b.OnReceive(func(*frame.Frame) { arrivals = append(arrivals, e.Now()) })
	for i := 0; i < 3; i++ {
		a.Send(&frame.Frame{Dst: b.MAC(), Payload: make([]byte, 50)}) // 64B -> 512ns each
	}
	e.Run()
	if len(arrivals) != 3 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	for i, want := range []sim.Time{512, 1024, 1536} {
		if arrivals[i] != want {
			t.Fatalf("arrivals = %v", arrivals)
		}
	}
}

func TestFullDuplexDirectionsIndependent(t *testing.T) {
	e := sim.NewEngine(1)
	a, b := pair(e, 1e9, 0)
	var aAt, bAt sim.Time
	a.OnReceive(func(*frame.Frame) { aAt = e.Now() })
	b.OnReceive(func(*frame.Frame) { bAt = e.Now() })
	a.Send(&frame.Frame{Dst: b.MAC(), Payload: make([]byte, 50)})
	b.Send(&frame.Frame{Dst: a.MAC(), Payload: make([]byte, 50)})
	e.Run()
	if aAt != 512 || bAt != 512 {
		t.Fatalf("full duplex broken: aAt=%v bAt=%v", aAt, bAt)
	}
}

func TestDownedLinkDropsTraffic(t *testing.T) {
	e := sim.NewEngine(1)
	a, b := pair(e, 1e9, 0)
	delivered := 0
	b.OnReceive(func(*frame.Frame) { delivered++ })
	a.Port().Link().SetUp(false)
	if a.Send(&frame.Frame{Dst: b.MAC()}) {
		t.Fatal("send on downed link succeeded")
	}
	e.Run()
	if delivered != 0 {
		t.Fatal("frame crossed downed link")
	}
	if a.Port().Drops() != 1 {
		t.Fatalf("drops = %d", a.Port().Drops())
	}
	// Bring it back: traffic flows again.
	a.Port().Link().SetUp(true)
	a.Send(&frame.Frame{Dst: b.MAC()})
	e.Run()
	if delivered != 1 {
		t.Fatal("link did not recover")
	}
}

func TestLinkDownDropsInFlight(t *testing.T) {
	e := sim.NewEngine(1)
	a, b := pair(e, 1e9, 10*sim.Microsecond)
	delivered := 0
	b.OnReceive(func(*frame.Frame) { delivered++ })
	a.Send(&frame.Frame{Dst: b.MAC()})
	link := a.Port().Link()
	e.After(5*sim.Microsecond, func() { link.SetUp(false) }) // mid-propagation
	e.Run()
	if delivered != 0 {
		t.Fatal("in-flight frame survived link failure")
	}
}

func TestHostFiltersForeignUnicast(t *testing.T) {
	e := sim.NewEngine(1)
	a, b := pair(e, 1e9, 0)
	got := 0
	b.OnReceive(func(*frame.Frame) { got++ })
	a.Send(&frame.Frame{Dst: frame.NewMAC(99)}) // not b's MAC
	a.Send(&frame.Frame{Dst: frame.Broadcast})
	e.Run()
	if got != 1 {
		t.Fatalf("handler ran %d times, want 1 (broadcast only)", got)
	}
}

func TestPriorityQueueStrictOrder(t *testing.T) {
	q := NewPriorityQueue(10)
	lo := &frame.Frame{Tagged: true, Priority: frame.PrioBestEffort}
	hi := &frame.Frame{Tagged: true, Priority: frame.PrioRT}
	q.Push(lo)
	q.Push(hi)
	if q.Pop() != hi {
		t.Fatal("high priority did not preempt")
	}
	if q.Pop() != lo {
		t.Fatal("low priority lost")
	}
	if q.Pop() != nil {
		t.Fatal("empty pop not nil")
	}
}

func TestPriorityQueueTailDrop(t *testing.T) {
	q := NewPriorityQueue(2)
	f := func() *frame.Frame { return &frame.Frame{} }
	if !q.Push(f()) || !q.Push(f()) {
		t.Fatal("initial pushes failed")
	}
	if q.Push(f()) {
		t.Fatal("overfull push succeeded")
	}
	if q.Len() != 2 {
		t.Fatalf("len = %d", q.Len())
	}
}

// TestPortCountsTailDropsPerClass: a refused Send counts against the
// frame's class, sums into OverflowDrops and Drops, and the class it
// hit reaches the port's digest.
func TestPortCountsTailDropsPerClass(t *testing.T) {
	fold := func(drop frame.PCP) uint64 {
		e := sim.NewEngine(1)
		a, b := pair(e, 1e6, 0)
		a.Port().SetQueueLimit(1)
		// The first frame serializes, one of each class waits, the last
		// is refused: only the refused frame's class differs.
		for _, pcp := range []frame.PCP{5, 5, 4, drop} {
			a.Send(&frame.Frame{Dst: b.MAC(), Tagged: true, Priority: pcp})
		}
		if p := a.Port(); p.OverflowDrops() != 1 || p.Drops() != 1 || p.QueueDepth() != 2 {
			t.Fatalf("PCP %d: OverflowDrops %d, Drops %d, depth %d; want 1, 1, 2", drop, p.OverflowDrops(), p.Drops(), p.QueueDepth())
		}
		d := checkpoint.NewDigest()
		a.Port().FoldState(d)
		return d.Sum()
	}
	if fold(4) == fold(5) {
		t.Fatal("a tail drop in class 4 and one in class 5 fold alike")
	}
}

func TestPriorityQueueFIFOWithinClass(t *testing.T) {
	q := NewPriorityQueue(10)
	a := &frame.Frame{Meta: frame.Meta{FlowID: 1}}
	b := &frame.Frame{Meta: frame.Meta{FlowID: 2}}
	q.Push(a)
	q.Push(b)
	if q.Pop() != a || q.Pop() != b {
		t.Fatal("FIFO violated within class")
	}
}

func TestSwitchLearnsAndForwards(t *testing.T) {
	e := sim.NewEngine(1)
	sw := NewSwitch(e, "sw", 3, SwitchConfig{Latency: sim.Microsecond})
	a := NewHost(e, "a", frame.NewMAC(1))
	b := NewHost(e, "b", frame.NewMAC(2))
	c := NewHost(e, "c", frame.NewMAC(3))
	Connect(e, "a", a.Port(), sw.Port(0), 1e9, 0)
	Connect(e, "b", b.Port(), sw.Port(1), 1e9, 0)
	Connect(e, "c", c.Port(), sw.Port(2), 1e9, 0)
	bGot, cGot := 0, 0
	b.OnReceive(func(*frame.Frame) { bGot++ })
	c.OnReceive(func(*frame.Frame) { cGot++ })

	// First frame to b: unknown destination, floods to b and c; both see
	// it but only b accepts (unicast filter). Switch learns a's port.
	a.Send(&frame.Frame{Dst: b.MAC(), Payload: []byte{1}})
	e.Run()
	if bGot != 1 {
		t.Fatalf("b got %d", bGot)
	}
	if sw.LookupPort(a.MAC()) != 0 {
		t.Fatal("switch did not learn a")
	}
	// b replies: a's port is known, no flood; switch learns b.
	b.Send(&frame.Frame{Dst: a.MAC(), Payload: []byte{2}})
	e.Run()
	if sw.LookupPort(b.MAC()) != 1 {
		t.Fatal("switch did not learn b")
	}
	// Second a->b frame: forwarded only to b.
	flooded := sw.FloodedFrames
	a.Send(&frame.Frame{Dst: b.MAC(), Payload: []byte{3}})
	e.Run()
	if sw.FloodedFrames != flooded {
		t.Fatal("known destination flooded")
	}
	if bGot != 2 || cGot != 0 {
		t.Fatalf("bGot=%d cGot=%d", bGot, cGot)
	}
}

// TestSwitchPortBlockedBounds: blocking state lives in a per-port slice;
// asking about a port the switch does not have answers "not blocked",
// setting one is a caller bug and panics.
func TestSwitchPortBlockedBounds(t *testing.T) {
	sw := NewSwitch(sim.NewEngine(1), "sw", 3, SwitchConfig{})
	sw.SetPortBlocked(1, true)
	sw.SetPortBlocked(2, true)
	sw.SetPortBlocked(2, false)
	cases := []struct {
		port   int
		read   bool // PortBlocked's answer
		panics bool // SetPortBlocked panics
	}{
		{-1, false, true},
		{0, false, false},
		{1, true, false},
		{2, false, false},
		{3, false, true},
		{1 << 20, false, true},
	}
	for _, c := range cases {
		if got := sw.PortBlocked(c.port); got != c.read {
			t.Errorf("PortBlocked(%d) = %v, want %v", c.port, got, c.read)
		}
		func() {
			defer func() {
				if r := recover(); (r != nil) != c.panics {
					t.Errorf("SetPortBlocked(%d): panic = %v, want panic %v", c.port, r, c.panics)
				}
			}()
			sw.SetPortBlocked(c.port, sw.PortBlocked(c.port))
		}()
	}
}

// TestSwitchFIBTable grows the forwarding table through several
// doublings with learned and configured entries mixed, then checks the
// rules the table carries: a static entry is never re-learned, a
// dynamic one follows the station, and FlushDynamic (also run by Fail)
// drops exactly the learned ones.
func TestSwitchFIBTable(t *testing.T) {
	e := sim.NewEngine(1)
	sw := NewSwitch(e, "sw", 4, SwitchConfig{})
	hosts := make([]*Host, 4)
	for i := range hosts {
		hosts[i] = NewHost(e, "h", frame.NewMAC(uint32(1000+i)))
		Connect(e, "l", hosts[i].Port(), sw.Port(i), 1e9, 0)
	}
	const stations = 300
	for st := 1; st <= stations; st++ {
		if st%3 == 0 {
			sw.AddStatic(frame.NewMAC(uint32(st)), st%4)
		} else {
			// Learned: a frame from that station arrives on a port.
			hosts[st%4].Port().Send(&frame.Frame{Src: frame.NewMAC(uint32(st)), Dst: frame.Broadcast})
		}
	}
	e.Run()
	for st := 1; st <= stations; st++ {
		if got := sw.LookupPort(frame.NewMAC(uint32(st))); got != st%4 {
			t.Fatalf("station %d behind port %d, want %d", st, got, st%4)
		}
	}
	if got := sw.LookupPort(frame.NewMAC(stations + 1)); got != -1 {
		t.Fatalf("unknown station resolves to port %d", got)
	}

	// Stations 3 (static) and 4 (learned) both show up on another port.
	for _, st := range []uint32{3, 4} {
		hosts[2].Port().Send(&frame.Frame{Src: frame.NewMAC(st), Dst: frame.Broadcast})
	}
	e.Run()
	if got := sw.LookupPort(frame.NewMAC(3)); got != 3 {
		t.Fatalf("static station re-learned onto port %d", got)
	}
	if got := sw.LookupPort(frame.NewMAC(4)); got != 2 {
		t.Fatalf("moved station still behind port %d, want 2", got)
	}

	sw.FlushDynamic()
	for st := 1; st <= stations; st++ {
		want := -1
		if st%3 == 0 {
			want = st % 4
		}
		if got := sw.LookupPort(frame.NewMAC(uint32(st))); got != want {
			t.Fatalf("after flush: station %d behind port %d, want %d", st, got, want)
		}
	}
	// The flushed table learns again.
	hosts[1].Port().Send(&frame.Frame{Src: frame.NewMAC(4), Dst: frame.Broadcast})
	e.Run()
	if got := sw.LookupPort(frame.NewMAC(4)); got != 1 {
		t.Fatalf("after flush: station 4 learned behind port %d, want 1", got)
	}
}

func TestSwitchAddsLatency(t *testing.T) {
	e := sim.NewEngine(1)
	sw := NewSwitch(e, "sw", 2, SwitchConfig{Latency: 2 * sim.Microsecond})
	a := NewHost(e, "a", frame.NewMAC(1))
	b := NewHost(e, "b", frame.NewMAC(2))
	Connect(e, "a", a.Port(), sw.Port(0), 1e9, 0)
	Connect(e, "b", b.Port(), sw.Port(1), 1e9, 0)
	sw.AddStatic(b.MAC(), 1)
	var at sim.Time
	b.OnReceive(func(*frame.Frame) { at = e.Now() })
	a.Send(&frame.Frame{Dst: b.MAC(), Payload: make([]byte, 50)})
	e.Run()
	// 512ns ser + 2µs switch + 512ns ser = 3024ns.
	if at != sim.Time(3024) {
		t.Fatalf("arrival = %v, want 3.024µs", at)
	}
}

// TestUnscheduledFlowsDoQueue: three same-class flows sending at the
// same instant through one egress port leave it back to back, each
// waiting out the frames ahead of it. That contention is what a TAS
// schedule exists to remove.
func TestUnscheduledFlowsDoQueue(t *testing.T) {
	e := sim.NewEngine(1)
	sw := NewSwitch(e, "sw", 4, SwitchConfig{Latency: 2 * sim.Microsecond})
	sink := NewHost(e, "sink", frame.NewMAC(100))
	egress := Connect(e, "sink", sw.Port(3), sink.Port(), 100e6, 0)
	sw.AddStatic(sink.MAC(), 3)
	var arrivals []sim.Time
	var wire int
	sink.OnReceive(func(f *frame.Frame) {
		arrivals = append(arrivals, e.Now())
		wire = f.WireLen()
	})
	for i := 0; i < 3; i++ {
		src := NewHost(e, "src", frame.NewMAC(uint32(i+1)))
		Connect(e, "acc", src.Port(), sw.Port(i), 1e9, 0)
		src.Send(&frame.Frame{
			Dst: sink.MAC(), Tagged: true, Priority: frame.PrioRT, VID: 10,
			Type: frame.TypeProfinet, Payload: make([]byte, 100),
		})
	}
	e.Run()
	if len(arrivals) != 3 {
		t.Fatalf("arrivals = %v, want 3", arrivals)
	}
	ser := egress.SerializationDelay(wire)
	for i := 1; i < 3; i++ {
		if gap := arrivals[i].Sub(arrivals[i-1]); gap != ser {
			t.Fatalf("arrivals = %v: gap %v, want one %v serialization", arrivals, gap, ser)
		}
	}
}

func TestSwitchHairpinDropped(t *testing.T) {
	e := sim.NewEngine(1)
	sw := NewSwitch(e, "sw", 2, SwitchConfig{})
	a := NewHost(e, "a", frame.NewMAC(1))
	b := NewHost(e, "b", frame.NewMAC(2))
	Connect(e, "a", a.Port(), sw.Port(0), 1e9, 0)
	Connect(e, "b", b.Port(), sw.Port(1), 1e9, 0)
	sw.AddStatic(a.MAC(), 0) // a's own port
	got := 0
	a.OnReceive(func(*frame.Frame) { got++ })
	b.OnReceive(func(*frame.Frame) { got++ })
	a.Send(&frame.Frame{Dst: a.MAC()}) // to itself via switch
	e.Run()
	if got != 0 {
		t.Fatal("hairpin frame delivered")
	}
}

func TestGateScheduleValidation(t *testing.T) {
	if _, err := NewGateSchedule(0, nil); err == nil {
		t.Fatal("zero cycle accepted")
	}
	if _, err := NewGateSchedule(100, []GateWindow{{Offset: 10, Duration: 90, Mask: MaskAll}}); err == nil {
		t.Fatal("leading gap accepted")
	}
	if _, err := NewGateSchedule(100, []GateWindow{{Offset: 0, Duration: 50, Mask: MaskAll}}); err == nil {
		t.Fatal("partial coverage accepted")
	}
	g, err := NewGateSchedule(100, []GateWindow{
		{Offset: 0, Duration: 40, Mask: MaskOf(frame.PrioRT)},
		{Offset: 40, Duration: 60, Mask: MaskAll},
	})
	if err != nil || g == nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
}

func TestGateMask(t *testing.T) {
	m := MaskOf(frame.PrioRT, frame.PrioNetControl)
	if !m.Open(frame.PrioRT) || m.Open(frame.PrioBestEffort) {
		t.Fatal("mask broken")
	}
	if !MaskAll.Open(frame.PCP(5)) {
		t.Fatal("MaskAll broken")
	}
}

func TestNextOpenWaitsForWindow(t *testing.T) {
	// Cycle 1ms: RT-only first 200µs, everything after.
	g := RTGuardSchedule(sim.Millisecond, 200*sim.Microsecond)
	// Best-effort frame at t=0 must wait until 200µs.
	start, ok := g.NextOpen(0, frame.PrioBestEffort, 10*sim.Microsecond)
	if !ok || start != sim.Time(200*sim.Microsecond) {
		t.Fatalf("start = %v ok=%v", start, ok)
	}
	// RT frame at t=0 goes immediately.
	start, ok = g.NextOpen(0, frame.PrioRT, 10*sim.Microsecond)
	if !ok || start != 0 {
		t.Fatalf("RT start = %v ok=%v", start, ok)
	}
}

func TestNextOpenGuardBand(t *testing.T) {
	g := RTGuardSchedule(sim.Millisecond, 200*sim.Microsecond)
	// RT frame needing 300µs cannot fit the 200µs RT window but fits the
	// open window (800µs).
	start, ok := g.NextOpen(0, frame.PrioRT, 300*sim.Microsecond)
	if !ok || start != sim.Time(200*sim.Microsecond) {
		t.Fatalf("start = %v ok=%v", start, ok)
	}
	// A frame needing more than any window never fits.
	if _, ok := g.NextOpen(0, frame.PrioRT, 2*sim.Millisecond); ok {
		t.Fatal("impossible frame admitted")
	}
}

func TestNextOpenMidWindow(t *testing.T) {
	g := RTGuardSchedule(sim.Millisecond, 200*sim.Microsecond)
	// RT frame arriving mid-RT-window with room to finish starts now.
	now := sim.Time(100 * sim.Microsecond)
	start, ok := g.NextOpen(now, frame.PrioRT, 50*sim.Microsecond)
	if !ok || start != now {
		t.Fatalf("start = %v ok=%v", start, ok)
	}
	// Arriving too late to finish -> next cycle.
	now = sim.Time(190 * sim.Microsecond)
	start, ok = g.NextOpen(now, frame.PrioRT, 50*sim.Microsecond)
	if !ok {
		t.Fatal("not ok")
	}
	if start != now { // still fits the all-open window at 200µs? no: RT can use MaskAll window too
		// The all-open window starts at 200µs and admits RT.
		if start != sim.Time(200*sim.Microsecond) {
			t.Fatalf("start = %v", start)
		}
	}
}

func TestTASDelaysBestEffortProtectsRT(t *testing.T) {
	e := sim.NewEngine(1)
	a, b := pair(e, 1e9, 0)
	a.Port().SetTAS(RTGuardSchedule(sim.Millisecond, 500*sim.Microsecond))
	var arrivals []sim.Time
	b.OnReceive(func(*frame.Frame) { arrivals = append(arrivals, e.Now()) })
	// Best-effort frame at t=0: gate closed until 500µs.
	a.Send(&frame.Frame{Dst: b.MAC(), Tagged: true, Priority: frame.PrioBestEffort, VID: 1, Payload: make([]byte, 50)})
	e.Run()
	if len(arrivals) != 1 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	// Tagged 50B payload = 68 wire bytes -> 544 ns at 1 Gb/s.
	if arrivals[0] != sim.Time(500*sim.Microsecond+544*sim.Nanosecond) {
		t.Fatalf("BE arrival = %v", arrivals[0])
	}
}

func TestBuildNetworkFromGraph(t *testing.T) {
	e := sim.NewEngine(1)
	g := topo.Line(2, 1, topo.LinkOT1G, topo.LinkOT1G)
	n := Build(e, g, SwitchConfig{Latency: sim.Microsecond})
	hosts := g.NodesOfKind(topo.KindHost)
	if len(hosts) != 2 {
		t.Fatalf("hosts = %d", len(hosts))
	}
	h0, h1 := n.Host(hosts[0]), n.Host(hosts[1])
	got := 0
	h1.OnReceive(func(*frame.Frame) { got++ })
	h0.Send(&frame.Frame{Dst: h1.MAC(), Payload: make([]byte, 30)})
	e.Run()
	if got != 1 {
		t.Fatal("frame did not cross built network")
	}
	if n.NodeByMAC(h0.MAC()) != hosts[0] {
		t.Fatal("NodeByMAC broken")
	}
	if n.NodeByMAC(frame.NewMAC(0xdead)) != -1 {
		t.Fatal("unknown MAC not -1")
	}
}

func TestInstallStaticRoutesPreventsFlooding(t *testing.T) {
	e := sim.NewEngine(1)
	g := topo.Line(3, 1, topo.LinkOT1G, topo.LinkOT1G)
	n := NewBlueprint(g).WithStaticRoutes().Instantiate(e, SwitchConfig{Latency: sim.Microsecond})
	hosts := g.NodesOfKind(topo.KindHost)
	h0, h2 := n.Host(hosts[0]), n.Host(hosts[2])
	got := 0
	h2.OnReceive(func(*frame.Frame) { got++ })
	h0.Send(&frame.Frame{Dst: h2.MAC(), Payload: make([]byte, 30)})
	e.Run()
	if got != 1 {
		t.Fatal("frame lost")
	}
	for _, swID := range g.NodesOfKind(topo.KindSwitch) {
		if n.Switch(swID).FloodedFrames != 0 {
			t.Fatalf("switch %d flooded despite static routes", swID)
		}
	}
}

func TestRebindConnectedPortPanics(t *testing.T) {
	e := sim.NewEngine(1)
	a, _ := pair(e, 1e9, 0)
	c := NewHost(e, "c", frame.NewMAC(3))
	defer func() {
		if recover() == nil {
			t.Fatal("double connect did not panic")
		}
	}()
	Connect(e, "dup", a.Port(), c.Port(), 1e9, 0)
}

func TestPortStatsCount(t *testing.T) {
	e := sim.NewEngine(1)
	a, b := pair(e, 1e9, 0)
	b.OnReceive(func(*frame.Frame) {})
	for i := 0; i < 5; i++ {
		a.Send(&frame.Frame{Dst: b.MAC(), Payload: make([]byte, 50)})
	}
	e.Run()
	if a.Port().TxFrames != 5 || b.Port().RxFrames != 5 {
		t.Fatalf("tx=%d rx=%d", a.Port().TxFrames, b.Port().RxFrames)
	}
	if a.Port().TxBytes != 5*64 {
		t.Fatalf("txBytes = %d", a.Port().TxBytes)
	}
	if b.RxCount != 5 {
		t.Fatalf("host rx = %d", b.RxCount)
	}
}

func TestTASGatePausedPortYieldsToOpenPriority(t *testing.T) {
	// Regression: a BE frame paused on a closed gate must not block an
	// RT frame whose gate is open.
	e := sim.NewEngine(1)
	a, b := pair(e, 1e9, 0)
	a.Port().SetTAS(RTGuardSchedule(sim.Millisecond, 500*sim.Microsecond))
	var rtAt sim.Time
	b.OnReceive(func(f *frame.Frame) {
		if f.EffectivePriority() == frame.PrioRT {
			rtAt = e.Now()
		}
	})
	// BE frame at t=0 pauses until 500µs; RT frame at 10µs must go now.
	a.Send(&frame.Frame{Dst: b.MAC(), Tagged: true, Priority: frame.PrioBestEffort, VID: 1, Payload: make([]byte, 50)})
	e.Schedule(sim.Time(10*sim.Microsecond), func() {
		a.Send(&frame.Frame{Dst: b.MAC(), Tagged: true, Priority: frame.PrioRT, VID: 1, Payload: make([]byte, 50)})
	})
	e.Run()
	if rtAt == 0 || rtAt > sim.Time(20*sim.Microsecond) {
		t.Fatalf("RT frame delivered at %v, blocked by gated BE frame", rtAt)
	}
}

func TestCreditShaperRateLimitsClass(t *testing.T) {
	// Shaped ML class at 10 Mb/s on a 1 Gb/s link: 100 queued 1000-byte
	// frames must drain at the idle slope, not at line rate.
	e := sim.NewEngine(1)
	a, b := pair(e, 1e9, 0)
	a.Port().SetShaper(NewCreditShaper(frame.PrioML, 10e6))
	var arrivals []sim.Time
	b.OnReceive(func(*frame.Frame) { arrivals = append(arrivals, e.Now()) })
	for i := 0; i < 100; i++ {
		a.Send(&frame.Frame{Dst: b.MAC(), Tagged: true, Priority: frame.PrioML, VID: 20, Payload: make([]byte, 1000)})
	}
	e.Run()
	if len(arrivals) != 100 {
		t.Fatalf("delivered %d", len(arrivals))
	}
	span := arrivals[len(arrivals)-1].Sub(arrivals[0])
	// 99 frames × 1018B × 8b / 10Mb/s ≈ 80.6 ms.
	rate := float64(99*1018*8) / span.Seconds()
	if rate > 11e6 {
		t.Fatalf("shaped rate = %.1f Mb/s, exceeds 10 Mb/s idle slope", rate/1e6)
	}
	if rate < 9e6 {
		t.Fatalf("shaped rate = %.1f Mb/s, far below idle slope", rate/1e6)
	}
}

func TestCreditShaperLeavesOtherClassesAlone(t *testing.T) {
	e := sim.NewEngine(1)
	a, b := pair(e, 1e9, 0)
	a.Port().SetShaper(NewCreditShaper(frame.PrioML, 1e6))
	var rtAt []sim.Time
	b.OnReceive(func(f *frame.Frame) {
		if f.EffectivePriority() == frame.PrioRT {
			rtAt = append(rtAt, e.Now())
		}
	})
	for i := 0; i < 10; i++ {
		a.Send(&frame.Frame{Dst: b.MAC(), Tagged: true, Priority: frame.PrioRT, VID: 10, Payload: make([]byte, 50)})
	}
	e.Run()
	if len(rtAt) != 10 {
		t.Fatalf("RT delivered %d", len(rtAt))
	}
	// RT frames drain back-to-back at line rate: 68B tagged = 544 ns.
	if got := rtAt[9].Sub(rtAt[0]); got != 9*544*sim.Nanosecond {
		t.Fatalf("RT drain time = %v, shaped by mistake", got)
	}
}

func TestCreditShaperProtectsRTFromShapedBurst(t *testing.T) {
	// A shaped ML burst cannot starve RT: RT preempts via strict
	// priority AND the shaper spaces the ML frames out.
	e := sim.NewEngine(1)
	a, b := pair(e, 100e6, 0)
	a.Port().SetShaper(NewCreditShaper(frame.PrioML, 20e6))
	var rtCount, mlCount int
	b.OnReceive(func(f *frame.Frame) {
		if f.EffectivePriority() == frame.PrioRT {
			rtCount++
		} else {
			mlCount++
		}
	})
	for i := 0; i < 50; i++ {
		a.Send(&frame.Frame{Dst: b.MAC(), Tagged: true, Priority: frame.PrioML, VID: 20, Payload: make([]byte, 1400)})
	}
	tk := e.Every(0, sim.Millisecond, func() {
		a.Send(&frame.Frame{Dst: b.MAC(), Tagged: true, Priority: frame.PrioRT, VID: 10, Payload: make([]byte, 40)})
	})
	e.RunUntil(sim.Time(50 * sim.Millisecond))
	tk.Stop()
	e.Run()
	if rtCount < 49 {
		t.Fatalf("RT frames = %d", rtCount)
	}
	if mlCount != 50 {
		t.Fatalf("ML frames = %d", mlCount)
	}
}

func TestCreditShaperBadSlopePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero slope accepted")
		}
	}()
	NewCreditShaper(frame.PrioML, 0)
}

func TestPriorityQueueRingWraparound(t *testing.T) {
	// Interleaved push/pop keeps one class's list emptying and refilling
	// many times over; FIFO order per class must survive it.
	q := NewPriorityQueue(8)
	mk := func(i int) *frame.Frame {
		return &frame.Frame{Tagged: true, Priority: frame.PrioRT, Meta: frame.Meta{FlowID: uint32(i)}}
	}
	next := 0
	want := 0
	for round := 0; round < 100; round++ {
		for i := 0; i < 5; i++ {
			if !q.Push(mk(next)) {
				t.Fatalf("push %d rejected below limit", next)
			}
			next++
		}
		for i := 0; i < 5; i++ {
			f := q.Pop()
			if f == nil {
				t.Fatal("pop returned nil with frames queued")
			}
			if int(f.Meta.FlowID) != want {
				t.Fatalf("FIFO broken across wraparound: got %d, want %d", f.Meta.FlowID, want)
			}
			want++
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after drain", q.Len())
	}
}

func TestPriorityQueueClassLenAndClearAfterWrap(t *testing.T) {
	q := NewPriorityQueue(16)
	// Cycle the PCP-5 class: fill, drain most of it, refill.
	for i := 0; i < 16; i++ {
		q.Push(&frame.Frame{Tagged: true, Priority: 5})
	}
	for i := 0; i < 10; i++ {
		q.Pop()
	}
	for i := 0; i < 10; i++ {
		q.Push(&frame.Frame{Tagged: true, Priority: 5})
	}
	if got := q.ClassLen(5); got != 16 {
		t.Fatalf("ClassLen(5) = %d, want 16", got)
	}
	if !q.Push(&frame.Frame{Tagged: true, Priority: 4}) {
		t.Fatal("other class rejected")
	}
	if q.Len() != 17 {
		t.Fatalf("Len = %d, want 17", q.Len())
	}
	// Tail drop at the limit.
	if q.Push(&frame.Frame{Tagged: true, Priority: 5}) {
		t.Fatal("push above class limit accepted")
	}
	q.Clear()
	if q.Len() != 0 || q.ClassLen(5) != 0 || q.ClassLen(4) != 0 {
		t.Fatal("Clear left residue")
	}
	if q.Peek() != nil || q.Pop() != nil {
		t.Fatal("Peek/Pop non-nil after Clear")
	}
	// Still usable after Clear.
	q.Push(&frame.Frame{Tagged: true, Priority: 5})
	if q.ClassLen(5) != 1 {
		t.Fatal("push after Clear failed")
	}
}

func TestPriorityQueuePopIsAllocFree(t *testing.T) {
	q := NewPriorityQueue(1 << 12)
	for i := 0; i < 1024; i++ {
		q.Push(&frame.Frame{Tagged: true, Priority: 3})
	}
	// Each round re-queues the head behind the rest: 1024 deep throughout.
	if avg := testing.AllocsPerRun(500, func() {
		q.Push(q.Pop())
	}); avg != 0 {
		t.Fatalf("Push+Pop allocates %v per op in steady state, want 0", avg)
	}
}
