package tap

import (
	"testing"

	"steelnet/internal/frame"
	"steelnet/internal/sim"
	"steelnet/internal/simnet"
)

// rig builds sender --- tap --- reflector; the reflector echoes every
// TypeBenchEcho frame back with Dst/Src swapped after delay.
func rig(t *testing.T, cfg Config, reflectDelay sim.Duration) (*sim.Engine, *simnet.Host, *Tap) {
	t.Helper()
	e := sim.NewEngine(1)
	sender := simnet.NewHost(e, "sender", frame.NewMAC(1))
	reflector := simnet.NewHost(e, "reflector", frame.NewMAC(2))
	tp := New(e, "tap", cfg)
	simnet.Connect(e, "s-tap", sender.Port(), tp.PortA(), 1e9, 0)
	simnet.Connect(e, "tap-r", tp.PortB(), reflector.Port(), 1e9, 0)
	reflector.OnReceive(func(f *frame.Frame) {
		g := f.Clone()
		g.Dst, g.Src = f.Src, reflector.MAC()
		g.Meta.CreatedAt = 0
		e.After(reflectDelay, sim.Func(func() { reflector.Send(g) }))
	})
	return e, sender, tp
}

// record collects every capture tp makes through the OnCapture hook.
func record(tp *Tap) *[]Capture {
	var caps []Capture
	tp.OnCapture = func(c Capture) { caps = append(caps, c) }
	return &caps
}

// roundTrips collects every round trip tp matches through the
// OnRoundTrip hook, per flow in match order.
func roundTrips(tp *Tap) map[uint32][]RTT {
	got := make(map[uint32][]RTT)
	tp.OnRoundTrip = func(flow uint32, r RTT) { got[flow] = append(got[flow], r) }
	return got
}

func probe(seq, flow uint32) *frame.Frame {
	pl := make([]byte, 32)
	if err := frame.MarshalProbeInto(frame.Probe{Seq: seq, FlowID: flow}, pl); err != nil {
		panic(err)
	}
	return &frame.Frame{Dst: frame.NewMAC(2), Type: frame.TypeBenchEcho, Payload: pl}
}

func TestTapForwardsTransparently(t *testing.T) {
	e, sender, _ := rig(t, Config{}, 0)
	got := 0
	sender.OnReceive(func(*frame.Frame) { got++ })
	sender.Send(probe(1, 7))
	e.Run()
	if got != 1 {
		t.Fatal("probe did not return through tap")
	}
}

func TestTapCapturesBothDirections(t *testing.T) {
	e, sender, tp := rig(t, Config{}, 0)
	log := record(tp)
	sender.Send(probe(1, 7))
	e.Run()
	caps := *log
	if len(caps) != 2 {
		t.Fatalf("captures = %d", len(caps))
	}
	if caps[0].Dir != AtoB || caps[1].Dir != BtoA {
		t.Fatalf("directions = %v,%v", caps[0].Dir, caps[1].Dir)
	}
	if caps[0].Seq != 1 || caps[0].FlowID != 7 {
		t.Fatalf("probe fields = %+v", caps[0])
	}
}

func TestRoundTripMeasuresReflectorDelay(t *testing.T) {
	delay := 10 * sim.Microsecond
	e, sender, tp := rig(t, Config{}, delay)
	got := roundTrips(tp)
	for i := uint32(0); i < 5; i++ {
		seq := i
		e.Schedule(sim.Time(i)*sim.Time(sim.Millisecond), sim.Func(func() { sender.Send(probe(seq, 7)) }))
	}
	e.Run()
	rtts := got[7]
	if len(rtts) != 5 {
		t.Fatalf("rtts = %d", len(rtts))
	}
	for _, r := range rtts {
		// Delay = reflector delay + 2x serialization (68B probe+hdr at
		// 1 Gb/s, min 64B → 68*8 = 544ns... probe is 32B payload+14B hdr
		// = 46B → min 64B → 512ns) + tiny quantization.
		lo := delay
		hi := delay + 3*sim.Microsecond
		if r.Delay < lo || r.Delay > hi {
			t.Fatalf("rtt %v outside [%v,%v]", r.Delay, lo, hi)
		}
	}
}

func TestRoundTripFiltersByFlow(t *testing.T) {
	e, sender, tp := rig(t, Config{}, 0)
	got := roundTrips(tp)
	sender.Send(probe(1, 7))
	sender.Send(probe(1, 8))
	e.Run()
	if len(got[7]) != 1 || len(got[8]) != 1 {
		t.Fatal("flow filter broken")
	}
	if len(got) != 2 {
		t.Fatalf("round trips of flows %v, want 7 and 8 only", got)
	}
}

func TestRoundTripIgnoresUnmatched(t *testing.T) {
	// Reflector that drops everything: only A->B captures exist.
	e := sim.NewEngine(1)
	sender := simnet.NewHost(e, "sender", frame.NewMAC(1))
	sink := simnet.NewHost(e, "sink", frame.NewMAC(2))
	tp := New(e, "tap", Config{})
	simnet.Connect(e, "s-tap", sender.Port(), tp.PortA(), 1e9, 0)
	simnet.Connect(e, "tap-r", tp.PortB(), sink.Port(), 1e9, 0)
	got := roundTrips(tp)
	sender.Send(probe(1, 7))
	e.Run()
	if len(got) != 0 {
		t.Fatal("unmatched probe produced RTT")
	}
}

func TestTimestampsQuantized(t *testing.T) {
	e, sender, tp := rig(t, Config{TimestampStep: 8 * sim.Nanosecond}, 0)
	log := record(tp)
	sender.Send(probe(1, 7))
	e.Run()
	if len(*log) == 0 {
		t.Fatal("nothing captured")
	}
	for _, c := range *log {
		if c.Timestamp%8 != 0 {
			t.Fatalf("timestamp %d not multiple of 8", c.Timestamp)
		}
	}
}

func TestClockOffsetCancelsInRoundTrip(t *testing.T) {
	// Two rigs, one with a wild clock offset: RTTs must be identical.
	run := func(offset sim.Duration) sim.Duration {
		e, sender, tp := rig(t, Config{ClockOffset: offset}, 5*sim.Microsecond)
		got := roundTrips(tp)
		sender.Send(probe(1, 7))
		e.Run()
		rtts := got[7]
		if len(rtts) != 1 {
			t.Fatalf("rtts = %d", len(rtts))
		}
		return rtts[0].Delay
	}
	if run(0) != run(3600*sim.Second) {
		t.Fatal("clock offset leaked into single-clock measurement")
	}
}

func TestOnCaptureHook(t *testing.T) {
	e, sender, tp := rig(t, Config{}, 0)
	seen := 0
	tp.OnCapture = func(Capture) { seen++ }
	sender.Send(probe(1, 7))
	e.Run()
	if seen != 2 {
		t.Fatalf("hook saw %d captures", seen)
	}
}

// TestReset: a probe whose reflection crosses the tap after a Reset
// matches nothing; one sent and reflected before it still matched.
func TestReset(t *testing.T) {
	e, sender, tp := rig(t, Config{}, 10*sim.Microsecond)
	got := roundTrips(tp)
	sender.Send(probe(1, 7))
	e.Run()
	if len(got[7]) != 1 {
		t.Fatal("no round trip before reset")
	}
	sender.Send(probe(2, 7))
	e.RunFor(5 * sim.Microsecond) // the probe is inside the reflector
	tp.Reset()
	e.Run()
	if len(got[7]) != 1 {
		t.Fatalf("reset did not clear the open probe: round trips %v", got[7])
	}
}

func TestNonProbeFramesCapturedWithoutSeq(t *testing.T) {
	e, sender, tp := rig(t, Config{}, 0)
	log := record(tp)
	sender.Send(&frame.Frame{Dst: frame.NewMAC(2), Type: frame.TypeIPv4, Payload: make([]byte, 100)})
	e.Run()
	caps := *log
	if len(caps) == 0 {
		t.Fatal("non-probe frame not captured")
	}
	if caps[0].Seq != 0 || caps[0].FlowID != 0 {
		t.Fatal("non-probe frame parsed as probe")
	}
	if caps[0].Type != frame.TypeIPv4 {
		t.Fatalf("type = %#x", caps[0].Type)
	}
}

func TestDirectionString(t *testing.T) {
	if AtoB.String() != "a->b" || BtoA.String() != "b->a" {
		t.Fatal("direction strings wrong")
	}
}
