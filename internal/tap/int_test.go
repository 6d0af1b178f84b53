package tap

import (
	"slices"
	"testing"

	"steelnet/internal/frame"
	"steelnet/internal/sim"
	"steelnet/internal/simnet"
)

// stackSink records INT stacks delivered to the sink host.
type stackSink struct {
	stacks []frame.INTStack
}

func (s *stackSink) SinkINT(node string, f *frame.Frame, nowNS int64) {
	st := *f.INT
	st.Hops = slices.Clone(st.Hops)
	s.stacks = append(s.stacks, st)
}

// TestINTCrossValidatesTapCaptures is the ground-truth check the paper's
// tap exists for: the same frames observed in-band (INT transit stamps)
// and out-of-band (tap captures) must tell the same story. The tap's
// capture clock quantizes to TimestampStep, its INT stamps use raw
// engine time, so the two views of one frame's arrival may differ by at
// most one tick.
func TestINTCrossValidatesTapCaptures(t *testing.T) {
	cfg := DefaultConfig
	e := sim.NewEngine(1)
	sender := simnet.NewHost(e, "sender", frame.NewMAC(1))
	sink := simnet.NewHost(e, "sink", frame.NewMAC(2))
	tp := New(e, "tap", cfg)
	simnet.Connect(e, "s-tap", sender.Port(), tp.PortA(), 1e9, 0)
	simnet.Connect(e, "tap-r", tp.PortB(), sink.Port(), 1e9, 0)
	sender.SetINTSource(7, 8, false)
	ss := &stackSink{}
	sink.SetINTSink(ss)
	sink.OnReceive(func(*frame.Frame) {})
	log := record(tp)

	const n = 5
	for i := 0; i < n; i++ {
		at := sim.Time(i) * sim.Time(sim.Millisecond)
		e.Schedule(at, sim.Func(func() {
			sender.Send(&frame.Frame{Dst: sink.MAC(), Type: frame.TypeIPv4, Payload: make([]byte, 46)})
		}))
	}
	e.Run()

	caps := *log
	if len(caps) != n || len(ss.stacks) != n {
		t.Fatalf("captures=%d stacks=%d, want %d of each", len(caps), len(ss.stacks), n)
	}
	step := int64(cfg.TimestampStep)
	for i, st := range ss.stacks {
		if len(st.Hops) != 1 || st.Hops[0].Node != "tap" {
			t.Fatalf("frame %d hops = %+v, want single tap transit", i, st.Hops)
		}
		// Captures and sends are in the same order (one frame in flight
		// at a time), so capture i is the tap's view of stack i.
		delta := st.Hops[0].IngressNS - caps[i].Timestamp
		if delta < 0 {
			delta = -delta
		}
		if delta >= step {
			t.Fatalf("frame %d: INT ingress %dns vs capture %dns — disagree by %dns, want < one %dns tick",
				i, st.Hops[0].IngressNS, caps[i].Timestamp, delta, step)
		}
		// The tap's pass-through latency is visible in-band.
		if got := st.Hops[0].HopLatencyNS(); got != int64(cfg.PassThrough) {
			t.Fatalf("frame %d hop latency = %dns, want pass-through %dns", i, got, int64(cfg.PassThrough))
		}
	}
}

// TestTapNeverDropsForINT pins the passive-tap guarantee: a full stack
// — even a strict one — forwards unstamped instead of dying.
func TestTapNeverDropsForINT(t *testing.T) {
	e := sim.NewEngine(1)
	sender := simnet.NewHost(e, "sender", frame.NewMAC(1))
	sink := simnet.NewHost(e, "sink", frame.NewMAC(2))
	sw := simnet.NewSwitch(e, "sw", 2, simnet.SwitchConfig{Latency: sim.Microsecond})
	tp := New(e, "tap", DefaultConfig)
	simnet.Connect(e, "s-sw", sender.Port(), sw.Port(0), 1e9, 0)
	simnet.Connect(e, "sw-tap", sw.Port(1), tp.PortA(), 1e9, 0)
	simnet.Connect(e, "tap-r", tp.PortB(), sink.Port(), 1e9, 0)
	sw.AddStatic(sink.MAC(), 1)
	sender.SetINTSource(7, 1, true) // one hop of room, strict policy
	ss := &stackSink{}
	sink.SetINTSink(ss)
	delivered := 0
	sink.OnReceive(func(*frame.Frame) { delivered++ })

	sender.Send(&frame.Frame{Dst: sink.MAC(), Type: frame.TypeIPv4, Payload: make([]byte, 46)})
	e.Run()

	if delivered != 1 || len(ss.stacks) != 1 {
		t.Fatalf("delivered=%d stacks=%d; tap must not destroy strict frames", delivered, len(ss.stacks))
	}
	// The switch took the only hop slot; the tap forwarded unstamped.
	if hops := ss.stacks[0].Hops; len(hops) != 1 || hops[0].Node != "sw" {
		t.Fatalf("hops = %+v, want only the switch's", hops)
	}
}
