package mlwork

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"steelnet/internal/frame"
	"steelnet/internal/metrics"
	"steelnet/internal/sim"
	"steelnet/internal/simnet"
)

func TestAccuracyCleanInput(t *testing.T) {
	for _, p := range []Profile{ObjectIdentification, DefectDetection} {
		if acc := p.Accuracy(Degradation{CompressionRatio: 1}); acc != p.BaseAccuracy {
			t.Fatalf("%s clean accuracy = %v", p.Name, acc)
		}
	}
}

func TestAccuracyMonotoneInCompression(t *testing.T) {
	p := DefectDetection
	prev := 1.1
	for _, r := range []float64{1, 2, 4, 8, 16, 64} {
		acc := p.Accuracy(Degradation{CompressionRatio: r})
		if acc > prev {
			t.Fatalf("accuracy rose with compression at %v", r)
		}
		prev = acc
	}
}

func TestAccuracyLossPenalty(t *testing.T) {
	p := ObjectIdentification
	clean := p.Accuracy(Degradation{CompressionRatio: 1})
	lossy := p.Accuracy(Degradation{CompressionRatio: 1, LossRate: 0.2})
	want := clean - p.LossSensitivity*0.2
	if lossy != want {
		t.Fatalf("lossy = %v, want %v", lossy, want)
	}
}

func TestAccuracyJitterPenaltyOnlyAboveMillisecond(t *testing.T) {
	p := ObjectIdentification
	a := p.Accuracy(Degradation{CompressionRatio: 1, Jitter: 500 * time.Microsecond})
	if a != p.BaseAccuracy {
		t.Fatal("sub-ms jitter penalized")
	}
	b := p.Accuracy(Degradation{CompressionRatio: 1, Jitter: 3 * time.Millisecond})
	if b >= a {
		t.Fatal("3ms jitter not penalized")
	}
}

func TestAccuracyClamped(t *testing.T) {
	p := DefectDetection
	if acc := p.Accuracy(Degradation{CompressionRatio: 1, LossRate: 5}); acc != 0 {
		t.Fatalf("accuracy = %v, want clamp at 0", acc)
	}
	f := func(r, l float64, j int64) bool {
		d := Degradation{CompressionRatio: 1 + mod(r, 100), LossRate: mod(l, 1), Jitter: time.Duration(j % int64(time.Second))}
		a := p.Accuracy(d)
		return a >= 0 && a <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func mod(v float64, m float64) float64 {
	v = math.Abs(math.Mod(v, m))
	if math.IsNaN(v) {
		return 0
	}
	return v
}

func TestWireBytes(t *testing.T) {
	p := Profile{FrameBytes: 1000}
	if p.WireBytes(Degradation{CompressionRatio: 4}) != 250 {
		t.Fatal("compression not applied")
	}
	if p.WireBytes(Degradation{CompressionRatio: 0}) != 1000 {
		t.Fatal("ratio<1 not clamped")
	}
	if p.WireBytes(Degradation{CompressionRatio: 1e9}) != 1 {
		t.Fatal("floor at 1 byte broken")
	}
}

func TestChooseCompression(t *testing.T) {
	p := DefectDetection
	cands := []float64{1, 2, 4, 8, 16, 32}
	// 0.993 - 0.045*log2(r) >= 0.90 admits r up to ~4.2 -> picks 4.
	r := p.ChooseCompression(0.90, cands)
	if r != 4 {
		t.Fatalf("chose %v, want 4", r)
	}
	if p.Accuracy(Degradation{CompressionRatio: r}) < 0.90 {
		t.Fatal("chosen ratio violates accuracy floor")
	}
	// Impossible target falls back to raw.
	if p.ChooseCompression(0.999, cands) != 1 {
		t.Fatal("impossible target did not fall back to 1")
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	h := header{ClientID: 7, ReqID: 9, FragIdx: 3, FragCount: 5, Kind: kindRequest}
	buf := make([]byte, headerLen+2)
	putHeader(buf, h)
	got, err := unmarshalHeader(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("roundtrip = %+v", got)
	}
	if _, err := unmarshalHeader([]byte{1}); err != ErrShortPacket {
		t.Fatalf("err = %v", err)
	}
}

// mlRig wires one client and one server through a switch.
func mlRig(t *testing.T, p Profile, deg Degradation, linkBps float64) (*sim.Engine, *Client, *Server) {
	t.Helper()
	e := sim.NewEngine(1)
	srv := AttachServer(e, simnet.NewHost(e, "srv", frame.NewMAC(100)), p)
	cli := AttachClient(e, simnet.NewHost(e, "cli", frame.NewMAC(1)), 1, frame.NewMAC(100), p, deg)
	sw := simnet.NewSwitch(e, "sw", 2, simnet.DefaultSwitchConfig)
	simnet.Connect(e, "c", cli.Host().Port(), sw.Port(0), linkBps, 500*sim.Nanosecond)
	simnet.Connect(e, "s", srv.Host().Port(), sw.Port(1), linkBps, 500*sim.Nanosecond)
	return e, cli, srv
}

func TestRequestResponseRoundTrip(t *testing.T) {
	e, cli, srv := mlRig(t, ObjectIdentification, Degradation{CompressionRatio: 1}, 10e9)
	cli.Start(0)
	e.RunUntil(sim.Time(time.Second))
	if cli.Completed < 9 {
		t.Fatalf("completed = %d", cli.Completed)
	}
	if srv.Served != cli.Completed {
		t.Fatalf("served=%d completed=%d", srv.Served, cli.Completed)
	}
	if cli.LossRate() > 0.11 {
		t.Fatalf("loss = %v", cli.LossRate())
	}
}

func TestLatencyIncludesInferenceTime(t *testing.T) {
	e, cli, _ := mlRig(t, ObjectIdentification, Degradation{CompressionRatio: 1}, 10e9)
	cli.Start(0)
	e.RunUntil(sim.Time(time.Second))
	// Lower bound: inference CPU alone is 0.9 ms.
	if m := cli.Latencies.Min(); m < 0.9 {
		t.Fatalf("min latency = %vms, below inference time", m)
	}
	if m := cli.Latencies.Median(); m > 5 {
		t.Fatalf("median = %vms on an idle 10G net", m)
	}
}

func TestCompressionReducesLatency(t *testing.T) {
	run := func(r float64) float64 {
		e, cli, _ := mlRig(t, DefectDetection, Degradation{CompressionRatio: r}, 1e9)
		cli.Start(0)
		e.RunUntil(sim.Time(2 * time.Second))
		return cli.Latencies.Median()
	}
	raw, compressed := run(1), run(8)
	if compressed >= raw {
		t.Fatalf("compression did not cut latency: %v vs %v", compressed, raw)
	}
}

func TestServerQueuesUnderLoad(t *testing.T) {
	// Many clients, one server: the queue must grow and latency rise.
	e := sim.NewEngine(1)
	p := ObjectIdentification
	srv := AttachServer(e, simnet.NewHost(e, "srv", frame.NewMAC(100)), p)
	sw := simnet.NewSwitch(e, "sw", 17, simnet.DefaultSwitchConfig)
	// Deep buffer on the server-facing port: the incast of 16×65
	// fragments must queue, not tail-drop, for this test's purpose.
	sw.Port(16).SetQueueLimit(4096)
	simnet.Connect(e, "s", srv.Host().Port(), sw.Port(16), 10e9, 500*sim.Nanosecond)
	clients := make([]*Client, 16)
	for i := range clients {
		clients[i] = AttachClient(e, simnet.NewHost(e, "c", frame.NewMAC(uint32(i+1))), uint32(i+1), frame.NewMAC(100), p, Degradation{CompressionRatio: 1})
		simnet.Connect(e, "c", clients[i].Host().Port(), sw.Port(i), 10e9, 500*sim.Nanosecond)
		clients[i].Start(0) // all synchronized: worst case burst
	}
	e.RunUntil(sim.Time(time.Second))
	if srv.MaxQueue < 4 {
		t.Fatalf("max queue = %d, expected burst backlog", srv.MaxQueue)
	}
	last := clients[15]
	if last.Latencies.Max() <= clients[0].Latencies.Min() {
		t.Fatal("no queueing-induced latency spread")
	}
}

func TestMissedDeadlinesCounted(t *testing.T) {
	// Slow link: 140 KB at 100 Mb/s ≈ 11 ms > 6 ms deadline.
	e, cli, _ := mlRig(t, DefectDetection, Degradation{CompressionRatio: 1}, 100e6)
	cli.Start(0)
	e.RunUntil(sim.Time(time.Second))
	if cli.Missed == 0 {
		t.Fatal("no deadline misses on a link that cannot meet them")
	}
}

func TestFragmentationCoversExactMultiples(t *testing.T) {
	p := Profile{FrameBytes: MTU * 3, ResultBytes: 16, Period: 10 * time.Millisecond, InferCPU: time.Microsecond, Deadline: time.Second}
	e, cli, srv := mlRig(t, p, Degradation{CompressionRatio: 1}, 1e9)
	cli.Start(0)
	e.RunUntil(sim.Time(100 * time.Millisecond))
	if srv.Served == 0 {
		t.Fatal("exact-multiple frame never reassembled")
	}
	_ = cli
}

// TestMLServeZeroAllocs: two clients fire at the same instant, so every
// period the server reassembles two fragmented requests, serves one
// while the other retries behind it, and answers both. Once the frame
// pool, the job free list and the engine's arena are warm, a period
// allocates nothing. The clients' latency series are sized up front:
// their growth is the results, not the serving loop.
func TestMLServeZeroAllocs(t *testing.T) {
	p := Profile{FrameBytes: 3*MTU + 100, ResultBytes: 64, Period: time.Millisecond,
		InferCPU: 200 * time.Microsecond, Deadline: time.Second}
	e := sim.NewEngine(1)
	srv := AttachServer(e, simnet.NewHost(e, "srv", frame.NewMAC(100)), p)
	sw := simnet.NewSwitch(e, "sw", 3, simnet.DefaultSwitchConfig)
	simnet.Connect(e, "s", srv.Host().Port(), sw.Port(2), 10e9, 500*sim.Nanosecond)
	pool := &frame.Pool{}
	srv.UsePool(pool)
	clients := make([]*Client, 2)
	for i := range clients {
		c := AttachClient(e, simnet.NewHost(e, "c", frame.NewMAC(uint32(i+1))), uint32(i+1), frame.NewMAC(100), p, Degradation{CompressionRatio: 1})
		simnet.Connect(e, "c", c.Host().Port(), sw.Port(i), 10e9, 500*sim.Nanosecond)
		c.UsePool(pool)
		c.Latencies = metrics.NewSeries(1 << 12)
		c.Start(0)
		clients[i] = c
	}
	period := func() { e.RunUntil(e.Now().Add(p.Period)) }
	for range 50 {
		period()
	}
	served := srv.Served
	const runs = 100
	if allocs := testing.AllocsPerRun(runs, period); allocs != 0 {
		t.Errorf("%.1f allocs per period, want 0", allocs)
	}
	if got := srv.Served - served; got < 2*runs {
		t.Fatalf("%d requests served over %d periods; the loop did not run", got, runs)
	}
	for _, c := range clients {
		if c.Missed != 0 || c.LossRate() > 0.01 {
			t.Fatalf("client %d: %d missed, loss %.3f", c.id, c.Missed, c.LossRate())
		}
	}
}
