package tap

import (
	"math/rand"
	"testing"

	"steelnet/internal/frame"
	"steelnet/internal/sim"
)

// scanRoundTrip is the pairing oracle: the log-scanning algorithm the
// tap used while it still kept every capture, run over an OnCapture
// record. Each A→B probe of the flow is paired with the next B→A probe
// carrying the same sequence number; a repeated A→B restarts the clock.
func scanRoundTrip(log []Capture, flowID uint32) []RTT {
	open := make(map[uint32]int64)
	var out []RTT
	for _, c := range log {
		if c.Type != frame.TypeBenchEcho || c.FlowID != flowID {
			continue
		}
		switch c.Dir {
		case AtoB:
			open[c.Seq] = c.Timestamp
		case BtoA:
			if start, ok := open[c.Seq]; ok {
				out = append(out, RTT{Seq: c.Seq, Delay: sim.Duration(c.Timestamp - start)})
				delete(open, c.Seq)
			}
		}
	}
	return out
}

func equalRTTs(a, b []RTT) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestStreamingPairingMatchesLogScan drives seeded random capture
// sequences straight into the tap's two ports — interleaved flows,
// probes that never come back, reflections nobody sent, repeated
// sequence numbers, non-probe frames and TypeBenchEcho payloads too
// short to parse (which both algorithms file under flow 0, sequence 0)
// — and requires the matches streamed to OnRoundTrip, per flow, to
// equal the log scan.
func TestStreamingPairingMatchesLogScan(t *testing.T) {
	const flows = 4 // 0..3; flow 0 collides with unparseable payloads
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := sim.NewEngine(1)
		tp := New(e, "tap", Config{TimestampStep: 8 * sim.Nanosecond})
		log := record(tp)
		streamed := roundTrips(tp)
		at := sim.Time(0)
		for i := 0; i < 600; i++ {
			at = at.Add(sim.Duration(1 + rng.Intn(2000)))
			port := tp.PortA()
			if rng.Intn(2) == 0 {
				port = tp.PortB()
			}
			var f *frame.Frame
			switch k := rng.Intn(10); {
			case k < 7:
				f = probe(uint32(rng.Intn(12)), uint32(rng.Intn(flows)))
			case k < 8:
				f = &frame.Frame{Type: frame.TypeIPv4, Payload: make([]byte, 60)}
			default:
				f = &frame.Frame{Type: frame.TypeBenchEcho, Payload: make([]byte, 10)}
			}
			e.Schedule(at, sim.Func(func() { tp.Receive(port, f) }))
		}
		e.Run()
		if len(*log) != 600 {
			t.Fatalf("seed %d: %d captures, want 600", seed, len(*log))
		}
		matched := 0
		for flow := uint32(0); flow <= flows; flow++ { // flows never seen included
			got, want := streamed[flow], scanRoundTrip(*log, flow)
			if !equalRTTs(got, want) {
				t.Fatalf("seed %d flow %d: streaming pairing\n%v\nlog scan\n%v", seed, flow, got, want)
			}
			matched += len(got)
		}
		if matched == 0 {
			t.Fatalf("seed %d: no round trips matched; the sequences exercise nothing", seed)
		}
		for flow := range streamed {
			if flow > flows {
				t.Fatalf("seed %d: round trips streamed for flow %d, which sent no probe", seed, flow)
			}
		}
	}
}

// TestResetClearsPairingState: after Reset a reflection must not pair
// with a probe sent before it, and pairing resumes for probes sent after.
func TestResetClearsPairingState(t *testing.T) {
	e := sim.NewEngine(1)
	tp := New(e, "tap", Config{})
	streamed := roundTrips(tp)
	tp.Receive(tp.PortA(), probe(1, 7))
	tp.Receive(tp.PortB(), probe(1, 7))
	tp.Receive(tp.PortA(), probe(2, 7)) // still open at the reset
	e.Run()
	if len(streamed[7]) != 1 {
		t.Fatalf("round trips before reset = %d, want 1", len(streamed[7]))
	}
	tp.Reset()
	tp.Receive(tp.PortB(), probe(2, 7))
	e.Run()
	if got := streamed[7]; len(got) != 1 {
		t.Fatalf("reflection paired across Reset: %v", got)
	}
	tp.Receive(tp.PortA(), probe(3, 7))
	tp.Receive(tp.PortB(), probe(3, 7))
	e.Run()
	if got := streamed[7]; len(got) != 2 || got[1].Seq != 3 {
		t.Fatalf("pairing after reset = %v, want seq 1 then seq 3", got)
	}
}

// TestForwardingFIFOUnderBacklog: with a pass-through delay longer than
// the frame spacing the tap always holds several frames, so its FIFO
// never drains to empty. Frames must still leave in arrival order, each
// exactly one delay after it came in, and the FIFO must reuse its
// drained front instead of growing with the number of frames forwarded.
func TestForwardingFIFOUnderBacklog(t *testing.T) {
	const n, spacing, delay = 2000, 100 * sim.Nanosecond, sim.Microsecond
	e := sim.NewEngine(1)
	tp := New(e, "tap", Config{PassThrough: delay})
	var reclaimed []uint32
	var at []sim.Time
	// Unconnected ports refuse every Send, so the ingress hook sees each
	// frame at the instant the tap forwards it.
	tp.PortA().OnDrop = func(f *frame.Frame) {
		reclaimed = append(reclaimed, f.Meta.FlowID)
		at = append(at, e.Now())
	}
	for i := 0; i < n; i++ {
		f := probe(uint32(i), 7)
		f.Meta.FlowID = uint32(i)
		e.Schedule(sim.Time(i)*sim.Time(spacing), sim.Func(func() { tp.Receive(tp.PortA(), f) }))
	}
	e.Run()
	if len(reclaimed) != n {
		t.Fatalf("%d frames forwarded, want %d", len(reclaimed), n)
	}
	for i, id := range reclaimed {
		if want := sim.Time(i)*sim.Time(spacing) + sim.Time(delay); id != uint32(i) || at[i] != want {
			t.Fatalf("frame %d left as number %d at %v, want at %v", id, i, at[i], want)
		}
	}
	if inFlight := int(delay / spacing); cap(tp.fifo) > 4*inFlight {
		t.Fatalf("FIFO grew to %d slots for %d frames in flight", cap(tp.fifo), inFlight)
	}
}
