package dataplane

import (
	"encoding/binary"
	"strings"
	"testing"
	"time"

	"steelnet/internal/frame"
	"steelnet/internal/profinet"
	"steelnet/internal/sim"
	"steelnet/internal/simnet"
	"steelnet/internal/telemetry"
)

// rig wires n hosts to an n-port pipeline and returns per-host receive
// counters.
func rig(t *testing.T, n int) (*sim.Engine, *Pipeline, []*simnet.Host, []*int) {
	t.Helper()
	e := sim.NewEngine(1)
	p := New(e, "dp", n, Config{Latency: sim.Microsecond})
	hosts := make([]*simnet.Host, n)
	counts := make([]*int, n)
	for i := 0; i < n; i++ {
		hosts[i] = simnet.NewHost(e, string(rune('a'+i)), frame.NewMAC(uint32(i+1)))
		simnet.Connect(e, "l", hosts[i].Port(), p.Port(i), 1e9, 0)
		c := new(int)
		counts[i] = c
		hosts[i].OnReceive(func(*frame.Frame) { *c++ })
	}
	return e, p, hosts, counts
}

func TestParseExtractsProfinetFields(t *testing.T) {
	cd := profinet.CyclicData{ARID: 42, CycleCounter: 7, Status: profinet.StatusValid}
	f := &frame.Frame{Src: frame.NewMAC(1), Dst: frame.NewMAC(2), Type: frame.TypeProfinet, Payload: cd.Marshal()}
	fl := Parse(3, f)
	if !fl.PNValid || fl.FrameID != profinet.FrameIDCyclic || fl.Src != f.Src || fl.InPort != 3 {
		t.Fatalf("fields = %+v", fl)
	}
}

func TestParseNonProfinet(t *testing.T) {
	f := &frame.Frame{Type: frame.TypeIPv4, Payload: []byte{1, 2, 3, 4, 5, 6}}
	if fl := Parse(0, f); fl.PNValid {
		t.Fatal("IPv4 parsed as PROFINET")
	}
}

func TestMatchWildcardsAndConstraints(t *testing.T) {
	fl := Fields{InPort: 1, Src: frame.NewMAC(5), PNValid: true, FrameID: profinet.FrameIDCyclic}
	if !(Match{}).Matches(fl) {
		t.Fatal("all-wildcard did not match")
	}
	if !(Match{InPort: Ptr(1), Src: Ptr(frame.NewMAC(5)), FrameID: Ptr(profinet.FrameIDCyclic)}).Matches(fl) {
		t.Fatal("exact match failed")
	}
	if (Match{InPort: Ptr(2)}).Matches(fl) {
		t.Fatal("wrong port matched")
	}
	if (Match{FrameID: Ptr(profinet.FrameIDAlarm)}).Matches(fl) {
		t.Fatal("wrong frame id matched")
	}
	// PROFINET constraints never match non-PROFINET frames.
	if (Match{FrameID: Ptr(profinet.FrameID(0))}).Matches(Fields{}) {
		t.Fatal("frame id constraint matched non-PN frame")
	}
}

func TestOutputForwards(t *testing.T) {
	e, p, hosts, counts := rig(t, 3)
	tbl := p.AddTable("fwd", Drop())
	tbl.Insert(Entry{Match: Match{InPort: Ptr(0)}, Action: Output(2)})
	hosts[0].Send(&frame.Frame{Dst: hosts[2].MAC(), Payload: make([]byte, 20)})
	e.Run()
	if *counts[2] != 1 || *counts[1] != 0 {
		t.Fatalf("counts = %d/%d", *counts[1], *counts[2])
	}
}

func TestDefaultActionApplies(t *testing.T) {
	e, p, hosts, counts := rig(t, 2)
	p.AddTable("t", Drop())
	hosts[0].Send(&frame.Frame{Dst: hosts[1].MAC()})
	e.Run()
	if *counts[1] != 0 {
		t.Fatal("dropped frame delivered")
	}
	if p.Dropped != 1 {
		t.Fatalf("dropped = %d", p.Dropped)
	}
}

func TestPriorityOrdersEntries(t *testing.T) {
	e, p, hosts, counts := rig(t, 3)
	tbl := p.AddTable("t", Drop())
	tbl.Insert(Entry{Priority: 1, Match: Match{}, Action: Output(1)})
	tbl.Insert(Entry{Priority: 10, Match: Match{InPort: Ptr(0)}, Action: Output(2)})
	hosts[0].Send(&frame.Frame{Dst: hosts[2].MAC()})
	e.Run()
	if *counts[2] != 1 || *counts[1] != 0 {
		t.Fatalf("high-priority entry not preferred: %d/%d", *counts[1], *counts[2])
	}
}

func TestMultiLegOutputMirrors(t *testing.T) {
	e, p, hosts, counts := rig(t, 3)
	tbl := p.AddTable("t", Drop())
	tbl.Insert(Entry{Match: Match{InPort: Ptr(0)}, Action: Action{Kind: ActOutput, Outputs: []PortAction{
		PortAction{Port: 1, SetDst: Ptr(hosts[1].MAC())},
		PortAction{Port: 2, SetDst: Ptr(hosts[2].MAC())},
	}}})
	hosts[0].Send(&frame.Frame{Dst: frame.NewMAC(99)})
	e.Run()
	if *counts[1] != 1 || *counts[2] != 1 {
		t.Fatalf("mirror counts = %d/%d", *counts[1], *counts[2])
	}
}

func TestEgressARIDRewrite(t *testing.T) {
	e, p, hosts, _ := rig(t, 2)
	var gotARID uint32
	hosts[1].OnReceive(func(f *frame.Frame) {
		cd, err := profinet.UnmarshalCyclicData(f.Payload)
		if err == nil {
			gotARID = cd.ARID
		}
	})
	tbl := p.AddTable("t", Drop())
	tbl.Insert(Entry{Match: Match{InPort: Ptr(0)}, Action: Action{Kind: ActOutput, Outputs: []PortAction{
		PortAction{Port: 1, SetARID: Ptr(uint32(777))},
	}}})
	cd := profinet.CyclicData{ARID: 5, Status: profinet.StatusValid, Data: []byte{1}}
	hosts[0].Send(&frame.Frame{Dst: hosts[1].MAC(), Type: frame.TypeProfinet, Payload: cd.Marshal()})
	e.Run()
	if gotARID != 777 {
		t.Fatalf("ARID = %d, want 777", gotARID)
	}
}

func TestEgressRewriteDoesNotAliasOtherLegs(t *testing.T) {
	e, p, hosts, _ := rig(t, 3)
	var arids []uint32
	rec := func(f *frame.Frame) {
		if cd, err := profinet.UnmarshalCyclicData(f.Payload); err == nil {
			arids = append(arids, cd.ARID)
		}
	}
	hosts[1].OnReceive(rec)
	hosts[2].OnReceive(rec)
	tbl := p.AddTable("t", Drop())
	tbl.Insert(Entry{Match: Match{InPort: Ptr(0)}, Action: Action{Kind: ActOutput, Outputs: []PortAction{
		PortAction{Port: 1, SetDst: Ptr(hosts[1].MAC()), SetARID: Ptr(uint32(100))},
		PortAction{Port: 2, SetDst: Ptr(hosts[2].MAC())},
	}}})
	cd := profinet.CyclicData{ARID: 5, Status: profinet.StatusValid}
	hosts[0].Send(&frame.Frame{Dst: frame.NewMAC(50), Type: frame.TypeProfinet, Payload: cd.Marshal()})
	e.Run()
	if len(arids) != 2 {
		t.Fatalf("arids = %v", arids)
	}
	seen := map[uint32]bool{arids[0]: true, arids[1]: true}
	if !seen[100] || !seen[5] {
		t.Fatalf("arids = %v, want one rewritten (100) and one original (5)", arids)
	}
}

func TestPacketInPunts(t *testing.T) {
	e, p, hosts, counts := rig(t, 2)
	var events []PacketInEvent
	p.OnPacketIn = func(ev PacketInEvent) { events = append(events, ev) }
	tbl := p.AddTable("t", Drop())
	tbl.Insert(Entry{Match: Match{FrameID: Ptr(profinet.FrameIDConnectReq)}, Action: PacketIn()})
	req := profinet.ConnectRequest{ARID: 3, CycleUS: 1000, WatchdogFactor: 3}
	hosts[0].Send(&frame.Frame{Dst: hosts[1].MAC(), Type: frame.TypeProfinet, Payload: req.Marshal()})
	e.Run()
	if len(events) != 1 || events[0].Fields.FrameID != profinet.FrameIDConnectReq || events[0].Fields.InPort != 0 {
		t.Fatalf("events = %+v", events)
	}
	if *counts[1] != 0 {
		t.Fatal("punted frame also forwarded")
	}
}

// TestContinueFallsThroughTables: an INT source table attaches its
// stack and falls through to the next table, whose verdict forwards.
func TestContinueFallsThroughTables(t *testing.T) {
	e, p, hosts, _ := rig(t, 2)
	var got *frame.INTStack
	hosts[1].OnReceive(func(f *frame.Frame) { got = f.INT })
	p.AddTable("int-source", INTSource(7))
	fwd := p.AddTable("fwd", Drop())
	fwd.Insert(Entry{Match: Match{InPort: Ptr(0)}, Action: Output(1)})
	hosts[0].Send(&frame.Frame{Dst: hosts[1].MAC()})
	e.Run()
	if got == nil {
		t.Fatal("frame did not traverse both tables with a stack")
	}
	if got.FlowID != 7 || got.Source != "dp.in0" || got.MaxHops != frame.DefaultINTMaxHops || got.Strict || len(got.Hops) != 1 {
		t.Fatalf("stack = %+v, want flow 7 from dp.in0, lenient, default room, one transit hop", *got)
	}
}

func TestCountersTrackHits(t *testing.T) {
	e, p, hosts, _ := rig(t, 2)
	tbl := p.AddTable("t", Drop())
	ent := tbl.Insert(Entry{Match: Match{InPort: Ptr(0)}, Action: Output(1)})
	for i := 0; i < 5; i++ {
		hosts[0].Send(&frame.Frame{Dst: hosts[1].MAC(), Payload: make([]byte, 50)})
	}
	e.Run()
	if ent.Hits != 5 {
		t.Fatalf("hits = %d", ent.Hits)
	}
}

func TestIdleTimeoutFiresOnceWhenTrafficStops(t *testing.T) {
	e, p, hosts, _ := rig(t, 2)
	idled := 0
	tbl := p.AddTable("t", Drop())
	tbl.Insert(Entry{
		Match:       Match{InPort: Ptr(0)},
		Action:      Output(1),
		IdleTimeout: 5 * time.Millisecond,
		OnIdle:      func(*Entry) { idled++ },
	})
	// Traffic every 1 ms for 20 ms, then silence.
	tk := e.Every(0, time.Millisecond, func() {
		hosts[0].Send(&frame.Frame{Dst: hosts[1].MAC()})
	})
	e.RunUntil(sim.Time(20 * time.Millisecond))
	tk.Stop()
	if idled != 0 {
		t.Fatal("idle fired while traffic flowed")
	}
	e.RunUntil(sim.Time(100 * time.Millisecond))
	if idled != 1 {
		t.Fatalf("idle fired %d times, want 1", idled)
	}
}

func TestIdleTimeoutCancelledByDelete(t *testing.T) {
	e, p, _, _ := rig(t, 2)
	tbl := p.AddTable("t", Drop())
	ent := tbl.Insert(Entry{
		Match:       Match{InPort: Ptr(0)},
		Action:      Output(1),
		IdleTimeout: time.Millisecond,
		OnIdle:      func(*Entry) { t.Fatal("idle fired after delete") },
	})
	tbl.Delete(ent)
	e.RunUntil(sim.Time(10 * time.Millisecond))
	if tbl.Len() != 0 {
		t.Fatalf("len = %d", tbl.Len())
	}
}

func TestInjectPacketOut(t *testing.T) {
	e, p, hosts, counts := rig(t, 2)
	p.AddTable("t", Drop())
	p.Inject(1, &frame.Frame{Src: frame.NewMAC(0xcc), Dst: hosts[1].MAC()})
	e.Run()
	if *counts[1] != 1 {
		t.Fatal("packet-out not delivered")
	}
}

func TestNoTablesDrops(t *testing.T) {
	e, p, hosts, counts := rig(t, 2)
	hosts[0].Send(&frame.Frame{Dst: hosts[1].MAC()})
	e.Run()
	if *counts[1] != 0 || p.Dropped != 1 {
		t.Fatal("tableless pipeline forwarded")
	}
}

func TestOutputToInvalidPortIgnored(t *testing.T) {
	e, p, hosts, _ := rig(t, 2)
	tbl := p.AddTable("t", Drop())
	tbl.Insert(Entry{Match: Match{}, Action: Output(9)})
	hosts[0].Send(&frame.Frame{Dst: hosts[1].MAC()})
	e.Run() // must not panic
}

func TestOnMatchObservesFrames(t *testing.T) {
	e, p, hosts, _ := rig(t, 2)
	tbl := p.AddTable("t", Drop())
	var seen int
	tbl.Insert(Entry{
		Match:   Match{InPort: Ptr(0)},
		Action:  Output(1),
		OnMatch: func(*Entry, *frame.Frame) { seen++ },
	})
	for i := 0; i < 3; i++ {
		hosts[0].Send(&frame.Frame{Dst: hosts[1].MAC()})
	}
	e.Run()
	if seen != 3 {
		t.Fatalf("OnMatch saw %d frames", seen)
	}
}

// Telemetry surface: tracing the pipeline records the punt and the
// forward, metrics registration exposes the verdict counters live, and
// the table keeps its entries in match order.
func TestPipelineTelemetryHooks(t *testing.T) {
	e, p, hosts, counts := rig(t, 2)
	if p.Name() != "dp" || p.NumPorts() != 2 {
		t.Fatalf("identity: name=%q ports=%d", p.Name(), p.NumPorts())
	}

	tr := telemetry.NewTracer(nil)
	tr.Bind(e)
	p.SetTracer(tr)
	r := telemetry.NewRegistry()
	p.RegisterMetrics(r)

	tbl := p.AddTable("t", Drop())
	lo := Entry{Priority: 1, Match: Match{InPort: Ptr(0)}, Action: Output(1)}
	hi := Entry{Priority: 2, Match: Match{InPort: Ptr(0)}, Action: Output(1)}
	tbl.Insert(lo)
	tbl.Insert(hi)
	ents := tbl.entries
	if len(ents) != 2 || ents[0].Priority != 2 {
		t.Fatalf("Entries not in match order: %+v", ents)
	}

	hosts[0].Send(&frame.Frame{Dst: hosts[1].MAC(), Payload: make([]byte, 30)})
	// No entry matches ingress port 1: the table's default Drop applies
	// and must be traced with the pipeline cause.
	hosts[1].Send(&frame.Frame{Dst: hosts[0].MAC(), Payload: make([]byte, 30)})
	e.Run()
	if *counts[1] != 1 {
		t.Fatal("frame did not cross the traced pipeline")
	}
	var sawEgress, sawDrop bool
	for _, ev := range tr.Events() {
		if ev.Kind == telemetry.KindEnqueue && ev.Node == "dp" && ev.Port == 1 {
			sawEgress = true
		}
		if ev.Kind == telemetry.KindDrop && ev.Node == "dp" && ev.Cause == telemetry.CausePipeline {
			sawDrop = true
		}
	}
	if !sawEgress || !sawDrop {
		t.Fatalf("egress=%v drop=%v in %+v", sawEgress, sawDrop, tr.Events())
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `steelnet_pipeline_processed_total{node="dp"} 2`) {
		t.Fatalf("processed counter not live:\n%s", sb.String())
	}
}

// TestFramesEndInThePool follows ownership through every way the
// pipeline can end a frame: a multi-leg output moves the frame onto its
// last leg and pool-clones the others, and a drop verdict, an output
// with no valid leg, a leg whose link is down and an unclaimed packet-in
// each return the frame to the pool.
func TestFramesEndInThePool(t *testing.T) {
	e, p, hosts, _ := rig(t, 4)
	pool := p.Pool()
	var got [4]*frame.Frame
	for i := range hosts {
		hosts[i].OnReceive(func(f *frame.Frame) { got[i] = f })
	}
	tbl := p.AddTable("t", PacketIn())
	tbl.Insert(Entry{Match: Match{InPort: Ptr(0)}, Action: Action{Kind: ActOutput, Outputs: []PortAction{
		PortAction{Port: 1, SetDst: Ptr(hosts[1].MAC())},
		PortAction{Port: 99},
		PortAction{Port: 2, SetDst: Ptr(hosts[2].MAC())},
		PortAction{Port: -1},
	}}})
	tbl.Insert(Entry{Match: Match{InPort: Ptr(1)}, Action: Drop()})
	tbl.Insert(Entry{Match: Match{InPort: Ptr(2)}, Action: Action{Kind: ActOutput, Outputs: []PortAction{{Port: 7}}}})
	tbl.Insert(Entry{Match: Match{InPort: Ptr(3), FrameID: Ptr(profinet.FrameIDCyclic)}, Action: Output(0)})

	send := func(from int, typ frame.EtherType) *frame.Frame {
		f := pool.Get(20)
		f.Dst, f.Type = frame.Broadcast, typ
		binary.BigEndian.PutUint16(f.Payload, uint16(profinet.FrameIDCyclic))
		if !hosts[from].Send(f) {
			t.Fatal("host refused the frame")
		}
		e.Run()
		return f
	}

	sent := send(0, frame.TypePTP)
	if got[2] != sent {
		t.Fatal("the frame itself did not travel on the last valid leg")
	}
	if got[1] == nil || got[1] == sent || got[1].Dst != hosts[1].MAC() || sent.Dst != hosts[2].MAC() {
		t.Fatalf("first leg = %v, last leg = %v: rewrites crossed or the copy is missing", got[1], sent)
	}
	if pool.News != 2 || pool.Outstanding() != 2 {
		t.Fatalf("two-leg output: pool %+v, want one source frame and one copy outstanding", *pool)
	}
	pool.Put(got[1])
	pool.Put(got[2])

	for name, from := range map[string]int{"drop verdict": 1, "no valid leg": 2, "packet-in nobody handles": 3} {
		send(from, frame.TypePTP)
		if pool.Outstanding() != 0 {
			t.Fatalf("%s: %d frames outstanding, pool %+v", name, pool.Outstanding(), *pool)
		}
	}
	hosts[0].Port().Link().SetUp(false)
	send(3, frame.TypeProfinet)
	if pool.Outstanding() != 0 || p.Port(0).DownDrops != 1 {
		t.Fatalf("leg onto a downed link: %d outstanding, %d down-drops", pool.Outstanding(), p.Port(0).DownDrops)
	}
}
