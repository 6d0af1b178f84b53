package mlwork

import (
	"testing"
	"time"

	"steelnet/internal/faults"
	"steelnet/internal/frame"
	"steelnet/internal/sim"
	"steelnet/internal/simnet"
)

// TestNoFrameLeaksUnderLinkChaos is the chaos suite's conservation
// invariant: UsePool sends the drops at each endpoint's port to its
// pool, so every pooled frame a fault destroys returns to a free list
// and, after the network drains, the pools account for every frame ever
// handed out. Frames migrate between the two pools (requests die in the
// server's, responses in the client's), so the invariant is the SUM of
// Outstanding, not the per-pool value.
func TestNoFrameLeaksUnderLinkChaos(t *testing.T) {
	e := sim.NewEngine(1)
	p := ObjectIdentification
	p.Period = 2 * time.Millisecond
	srv := AttachServer(e, simnet.NewHost(e, "srv", frame.NewMAC(100)), p)
	cli := AttachClient(e, simnet.NewHost(e, "cli", frame.NewMAC(1)), 1, frame.NewMAC(100), p, Degradation{CompressionRatio: 1})
	link := simnet.Connect(e, "cl-srv", cli.Host().Port(), srv.Host().Port(), 1e9, sim.Microsecond)
	cli.UsePool(&frame.Pool{})
	srv.UsePool(&frame.Pool{})

	in := faults.NewInjector(e)
	in.RegisterLink("cl-srv", link)
	in.RegisterPort("cli", cli.Host().Port())
	in.RegisterPort("srv", srv.Host().Port())
	plan := faults.Generate(42, faults.GenConfig{
		Horizon:    400 * time.Millisecond,
		Events:     24,
		MeanOutage: 10 * time.Millisecond,
		Links:      []string{"cl-srv"},
		Ports:      []string{"cli", "srv"},
	})
	if err := in.Apply(plan); err != nil {
		t.Fatal(err)
	}

	cli.Start(0)
	e.RunUntil(sim.Time(400 * time.Millisecond))
	cli.ticker.Stop()
	e.Run() // drain every in-flight frame and pending recovery

	if in.Injected != 24 {
		t.Fatalf("injected %d faults, want 24", in.Injected)
	}
	cp, sp := cli.Host().Port(), srv.Host().Port()
	if cp.Drops()+cp.InjectedDrops()+sp.Drops()+sp.InjectedDrops() == 0 {
		t.Fatal("chaos plan destroyed no frames; the invariant was not exercised")
	}
	if out := cli.Host().Pool().Outstanding() + srv.Host().Pool().Outstanding(); out != 0 {
		t.Fatalf("%d frames leaked (client: %d outstanding, server: %d outstanding; "+
			"drops cli=%d+%d srv=%d+%d)\nplan: %s",
			out, cli.Host().Pool().Outstanding(), srv.Host().Pool().Outstanding(),
			cp.Drops(), cp.InjectedDrops(), sp.Drops(), sp.InjectedDrops(), plan)
	}
	// The counter-level identity must agree with the pool-level one:
	// forwarded + dropped (+ still queued/in flight: zero after a full
	// drain) == sent, per run.
	acct := simnet.Account(cp, sp)
	if err := acct.Check(); err != nil {
		t.Fatal(err)
	}
	if acct.Queued != 0 || acct.InFlight != 0 {
		t.Fatalf("network not drained: %+v", acct)
	}
	if cli.Completed == 0 {
		t.Fatal("no request ever completed between faults")
	}
}

// TestCorruptionBurstDoesNotLeakOrCrash: corrupted headers take the
// early-return path in both endpoints' handlers, which must still
// recycle the frame.
func TestCorruptionBurstDoesNotLeakOrCrash(t *testing.T) {
	e := sim.NewEngine(2)
	p := ObjectIdentification
	p.Period = 2 * time.Millisecond
	srv := AttachServer(e, simnet.NewHost(e, "srv", frame.NewMAC(100)), p)
	cli := AttachClient(e, simnet.NewHost(e, "cli", frame.NewMAC(1)), 1, frame.NewMAC(100), p, Degradation{CompressionRatio: 1})
	simnet.Connect(e, "cl-srv", cli.Host().Port(), srv.Host().Port(), 1e9, sim.Microsecond)
	cli.UsePool(&frame.Pool{})
	srv.UsePool(&frame.Pool{})

	in := faults.NewInjector(e)
	in.RegisterPort("cli", cli.Host().Port())
	in.RegisterPort("srv", srv.Host().Port())
	if err := in.Apply(faults.Plan{Events: []faults.Event{
		{At: 0, Kind: faults.KindCorruptBurst, Target: "cli", Duration: 200 * time.Millisecond, Magnitude: 0.5},
		{At: 0, Kind: faults.KindCorruptBurst, Target: "srv", Duration: 200 * time.Millisecond, Magnitude: 0.5},
	}}); err != nil {
		t.Fatal(err)
	}

	cli.Start(0)
	e.RunUntil(sim.Time(200 * time.Millisecond))
	cli.ticker.Stop()
	e.Run()

	if cli.Host().Port().CorruptedFrames() == 0 && srv.Host().Port().CorruptedFrames() == 0 {
		t.Fatal("no frame was ever corrupted")
	}
	if out := cli.Host().Pool().Outstanding() + srv.Host().Pool().Outstanding(); out != 0 {
		t.Fatalf("%d frames leaked under corruption", out)
	}
	if err := simnet.Account(cli.Host().Port(), srv.Host().Port()).Check(); err != nil {
		t.Fatal(err)
	}
}
