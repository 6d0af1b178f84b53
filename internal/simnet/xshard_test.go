package simnet

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"steelnet/internal/checkpoint"
	"steelnet/internal/frame"
	"steelnet/internal/sim"
	"steelnet/internal/topo"
)

// twoCellGraph builds the smallest interesting sharded topology: two
// switches joined by one backbone edge with propagation prop, two hosts
// on each. The partition puts each switch and its hosts on its own
// shard, so the backbone is the only cut edge.
func twoCellGraph(prop int64) (*topo.Graph, topo.Partition) {
	g := topo.NewGraph("twocell")
	swA := g.AddNode("swA", topo.KindSwitch)
	swB := g.AddNode("swB", topo.KindSwitch)
	g.AddNode("a0", topo.KindHost)
	g.AddNode("a1", topo.KindHost)
	g.AddNode("b0", topo.KindHost)
	g.AddNode("b1", topo.KindHost)
	g.AddEdge(swA, swB, 1e9, prop)
	g.AddEdge(swA, 2, 1e9, 500)
	g.AddEdge(swA, 3, 1e9, 500)
	g.AddEdge(swB, 4, 1e9, 500)
	g.AddEdge(swB, 5, 1e9, 500)
	return g, topo.Partition{Shards: 2, Of: []int{0, 1, 0, 0, 1, 1}}
}

// installTwoCellRoutes programs both switches constructively: local
// hosts by static entry, everything else out the backbone default port.
func installTwoCellRoutes(sw *Switch, hostPorts map[frame.MAC]int, defPort int) {
	for mac, port := range hostPorts {
		sw.AddStatic(mac, port)
	}
	sw.SetDefaultPort(defPort)
}

// driveTwoCell wires periodic cross-shard traffic (a0->b0 and b1->a1)
// on a built sharded network, runs it to the horizon in barrier-aligned
// chunks checking conservation at each cut, and returns the combined
// group+equipment digest. Frames are pooled per shard; cross-shard
// frames migrate pools, so the sum of Outstanding over both pools must
// drain to zero.
func driveTwoCell(t *testing.T, workers int) uint64 {
	t.Helper()
	g, part := twoCellGraph(5000)
	n, err := NewSharded(42, g, part, SwitchConfig{Latency: sim.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if la := n.Group.Lookahead(); la != 5000 {
		t.Fatalf("lookahead = %v, want backbone prop 5000", la)
	}
	var pools [2]frame.Pool
	for id := topo.NodeID(2); id <= 5; id++ {
		n.Host(id).OnReceive(pools[part.Of[id]].Put)
	}
	// A switch port's OnDrop goes to the owning shard's pool; the hosts
	// send only what their pool lends and take back what Send refuses.
	for id := topo.NodeID(0); id <= 1; id++ {
		sw := n.Switch(id)
		for i := range sw.NumPorts() {
			sw.Port(i).OnDrop = pools[part.Of[id]].Put
		}
	}
	swA, swB := n.Switch(0), n.Switch(1)
	installTwoCellRoutes(swA, map[frame.MAC]int{
		n.Host(2).MAC(): n.PortIndex(0, 1),
		n.Host(3).MAC(): n.PortIndex(0, 2),
	}, n.PortIndex(0, 0))
	installTwoCellRoutes(swB, map[frame.MAC]int{
		n.Host(4).MAC(): n.PortIndex(1, 3),
		n.Host(5).MAC(): n.PortIndex(1, 4),
	}, n.PortIndex(1, 0))

	a0, a1 := n.Host(2), n.Host(3)
	b0, b1 := n.Host(4), n.Host(5)
	const horizon = sim.Time(2_000_000)
	send := func(src *Host, dst frame.MAC, pool *frame.Pool) func() {
		return func() {
			if src.Engine().Now() > horizon-100_000 {
				return // stop sending; let the tail drain
			}
			f := pool.Get(128)
			f.Dst = dst
			if !src.Send(f) {
				pool.Put(f)
			}
		}
	}
	a0.Engine().Every(1000, 2000, sim.Func(send(a0, b0.MAC(), &pools[0])))
	b1.Engine().Every(1500, 3000, sim.Func(send(b1, a1.MAC(), &pools[1])))

	sawCrossWire := false
	for at := sim.Time(50_000); at <= horizon; at += 50_000 {
		n.Group.Run(at, workers)
		a := n.Account()
		if err := a.Check(); err != nil {
			t.Fatalf("barrier %v: %v", at, err)
		}
		if a.CrossWire > 0 {
			sawCrossWire = true
		}
	}
	if !sawCrossWire {
		t.Fatal("no barrier ever caught a frame on the cross-shard wire; the CrossWire term is untested")
	}
	final := n.Account()
	if final.CrossWire != 0 {
		t.Fatalf("drained run still has %d cross-wire frames", final.CrossWire)
	}
	if final.Delivered == 0 {
		t.Fatal("no frames delivered")
	}
	if out := pools[0].Outstanding() + pools[1].Outstanding(); out != 0 {
		t.Fatalf("pooled frames leaked across shards: outstanding sum = %d", out)
	}
	if b0.RxCount == 0 || a1.RxCount == 0 {
		t.Fatalf("cross-shard hosts got no traffic: b0=%d a1=%d", b0.RxCount, a1.RxCount)
	}
	d := checkpoint.NewDigest()
	n.Group.FoldState(d)
	n.FoldState(d)
	return d.Sum()
}

func TestShardedNetworkCrossTrafficConservesAndIsDeterministic(t *testing.T) {
	ref := driveTwoCell(t, 1)
	for _, workers := range []int{2, 4} {
		if got := driveTwoCell(t, workers); got != ref {
			t.Fatalf("workers=%d digest %#x != serial %#x", workers, got, ref)
		}
	}
}

// randomPlant grows a seeded random tree of switches with hosts hung off
// them as it goes, so switch and host ids interleave.
func randomPlant(rng *sim.RNG) *topo.Graph {
	g := topo.NewGraph("random-plant")
	var sw []topo.NodeID
	hosts := 0
	for nSw := 4 + rng.Intn(4); len(sw) < nSw; {
		id := g.AddNode(fmt.Sprintf("sw%d", len(sw)), topo.KindSwitch)
		if len(sw) > 0 {
			g.AddEdge(sw[rng.Intn(len(sw))], id, 1e9, int64(1000+rng.Intn(4000)))
		}
		sw = append(sw, id)
		for k := 1 + rng.Intn(2); k > 0; k-- {
			h := g.AddNode(fmt.Sprintf("h%d", hosts), topo.KindHost)
			g.AddEdge(id, h, 1e9, int64(200+rng.Intn(800)))
			hosts++
		}
	}
	return g
}

// randomPartition places g's nodes on k classes at random, every class
// non-empty. With hostOnly the last class receives no switch.
func randomPartition(rng *sim.RNG, g *topo.Graph, k int, hostOnly bool) topo.Partition {
	p := topo.Partition{Shards: k, Of: make([]int, g.NumNodes())}
	switches, hosts := g.NodesOfKind(topo.KindSwitch), g.NodesOfKind(topo.KindHost)
	swClasses := k
	if hostOnly {
		swClasses = k - 1
	}
	for _, id := range switches {
		p.Of[id] = rng.Intn(swClasses)
	}
	for _, id := range hosts {
		p.Of[id] = rng.Intn(k)
	}
	for s := 0; s < swClasses; s++ { // randomPlant has at least 4 switches
		p.Of[switches[s]] = s
	}
	if hostOnly {
		p.Of[hosts[rng.Intn(len(hosts))]] = k - 1
	}
	return p
}

// TestShardedMatchesUnshardedEquipment pins the physics: the same
// scenario built on one engine and across the shards of any partition
// must leave every switch, host and link counter byte-identical — the
// equipment digest does not know how the simulation was executed.
func TestShardedMatchesUnshardedEquipment(t *testing.T) {
	const horizon = sim.Time(500_000)
	type outcome struct {
		digest uint64
		acct   Accounting
		rx     []uint64
	}
	// drive has every host of n, routed statically, send to the next
	// one on its own period, runs to the horizon and reads the equipment
	// back.
	drive := func(n *Network, advance func()) outcome {
		hosts := n.Graph.NodesOfKind(topo.KindHost)
		for i, id := range hosts {
			src, dst := n.Host(id), n.Host(hosts[(i+1)%len(hosts)]).MAC()
			src.Engine().Every(sim.Time(1000+137*i), sim.Duration(2000+300*i), sim.Func(func() {
				if src.Engine().Now() <= horizon-50_000 {
					src.Send(&frame.Frame{Dst: dst, Payload: make([]byte, 96)})
				}
			}))
		}
		advance()
		d := checkpoint.NewDigest()
		n.FoldState(d)
		out := outcome{digest: d.Sum(), acct: n.Account()}
		for _, id := range hosts {
			out.rx = append(out.rx, n.Host(id).RxCount)
		}
		if out.acct.Delivered == 0 {
			t.Fatal("no frames delivered")
		}
		return out
	}
	cfg := SwitchConfig{Latency: sim.Microsecond}
	for trial := 0; trial < 24; trial++ {
		rng := sim.NewRNG(uint64(trial))
		g := randomPlant(rng)
		k := 1 + trial%4
		part := randomPartition(rng, g, k, k > 1 && trial%3 == 0)

		e := sim.NewEngine(7)
		want := drive(NewBlueprint(g).WithStaticRoutes().Instantiate(e, cfg), func() { e.RunUntil(horizon) })

		bp, err := NewShardedBlueprint(g, part)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		n, err := bp.WithStaticRoutes().InstantiateSharded(7, cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got := drive(n, func() { n.Group.Run(horizon, 2) })
		if got.digest != want.digest {
			t.Errorf("trial %d (%d classes): sharded equipment digest %#x != unsharded %#x", trial, k, got.digest, want.digest)
		}
		if got.acct != want.acct {
			t.Errorf("trial %d (%d classes): sharded ledger %+v != unsharded %+v", trial, k, got.acct, want.acct)
		}
		if !slices.Equal(got.rx, want.rx) {
			t.Errorf("trial %d (%d classes): host RxCounts %v != unsharded %v", trial, k, got.rx, want.rx)
		}
	}
}

// TestNetworkPortsInIDOrder: Ports walks the nodes in id order on every
// build.
func TestNetworkPortsInIDOrder(t *testing.T) {
	rng := sim.NewRNG(3)
	g := randomPlant(rng)
	part := randomPartition(rng, g, 3, true)
	var want []string
	for _, node := range g.Nodes() {
		for i := 0; i < g.Degree(node.ID); i++ {
			want = append(want, fmt.Sprintf("%s/%d", node.Name, i))
		}
	}
	for build := 0; build < 5; build++ {
		n, err := NewSharded(1, g, part, DefaultSwitchConfig)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, p := range n.Ports() {
			got = append(got, fmt.Sprintf("%s/%d", p.Owner.Name(), p.Index))
		}
		if !slices.Equal(got, want) {
			t.Fatalf("build %d: Ports() = %v, want id order %v", build, got, want)
		}
	}
}

func TestShardedNetworkZeroLookaheadRejected(t *testing.T) {
	g, part := twoCellGraph(0)
	if _, err := NewSharded(1, g, part, DefaultSwitchConfig); !errors.Is(err, sim.ErrZeroLookahead) {
		t.Fatalf("zero-prop cut edge: got %v, want ErrZeroLookahead", err)
	}
	// Serial fallback contract: the same graph on a one-shard partition
	// builds fine — there is no cut, hence no lookahead constraint.
	serial := topo.Partition{Shards: 1, Of: make([]int, g.NumNodes())}
	n, err := NewSharded(1, g, serial, DefaultSwitchConfig)
	if err != nil {
		t.Fatalf("serial fallback rejected: %v", err)
	}
	if n.Group.Shards() != 1 {
		t.Fatalf("fallback built %d shards", n.Group.Shards())
	}
	for _, l := range n.links {
		if l.Cross() {
			t.Fatalf("one-shard build produced cross link %q", l.Name)
		}
	}
}

func TestCrossLinkSetUpPanics(t *testing.T) {
	g, part := twoCellGraph(5000)
	n, err := NewSharded(1, g, part, DefaultSwitchConfig)
	if err != nil {
		t.Fatal(err)
	}
	backbone := n.Link(0)
	if !backbone.Cross() {
		t.Fatal("backbone edge did not become a cross link")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetUp on a cross-shard link did not panic")
		}
	}()
	backbone.SetUp(false)
}

func TestAddCrossLinkIgnoresLocalLinks(t *testing.T) {
	e := sim.NewEngine(1)
	a := NewHost(e, "a", frame.NewMAC(1))
	b := NewHost(e, "b", frame.NewMAC(2))
	l := Connect(e, "l", a.Port(), b.Port(), 1e9, 100)
	var acct Accounting
	acct.AddCrossLink(l)
	if acct.CrossWire != 0 {
		t.Fatalf("local link contributed %d to CrossWire", acct.CrossWire)
	}
}

// crossPath builds twoCellGraph on two shards and returns n with a func
// that sends one pooled frame from a0 over the cross-shard backbone to
// b0, which sends it straight back, then runs the group until it is
// home: every call crosses the cross-shard link once each way.
func crossPath(tb testing.TB) (*Network, func()) {
	g, part := twoCellGraph(5000)
	bp, err := NewShardedBlueprint(g, part)
	if err != nil {
		tb.Fatal(err)
	}
	n, err := bp.WithStaticRoutes().InstantiateSharded(42, SwitchConfig{Latency: sim.Microsecond})
	if err != nil {
		tb.Fatal(err)
	}
	a0, b0 := n.Host(2), n.Host(4)
	pool := &frame.Pool{}
	a0.OnReceive(pool.Put)
	b0.OnReceive(func(f *frame.Frame) {
		f.Dst = a0.MAC()
		if !b0.Send(f) {
			pool.Put(f)
		}
	})
	return n, func() {
		f := pool.Get(64)
		f.Dst = b0.MAC()
		a0.Send(f)
		n.Group.Run(n.Group.Now().Add(sim.Millisecond), 1)
	}
}

// TestCrossShardForwardingZeroAllocs: once warm, a frame crossing a
// cross-shard link and coming back allocates nothing — the handoff
// passes the link's prebuilt handler and the frame, and the barrier
// binds it to a recycled delivery slot. CI's zero-overhead job runs
// this; BenchmarkCrossShardForwarding is its benchdiff guard.
func TestCrossShardForwardingZeroAllocs(t *testing.T) {
	n, send := crossPath(t)
	for i := 0; i < 64; i++ {
		send()
	}
	before := n.Group.Stats().Messages
	const runs = 200
	if allocs := testing.AllocsPerRun(runs, send); allocs != 0 {
		t.Fatalf("cross-shard round trip allocates %.1f allocs/op; want 0", allocs)
	}
	// AllocsPerRun calls send once more to warm up.
	if got := n.Group.Stats().Messages - before; got != 2*(runs+1) {
		t.Fatalf("%d cross-shard messages over %d round trips; the path does not cross", got, runs+1)
	}
	if a := n.Account(); a.Check() != nil || a.CrossWire != 0 {
		t.Fatalf("after the round trips: %+v, %v", a, a.Check())
	}
}

// TestCorruptionDrawsOverZeroTail: a corrupting port draws its octet
// over the whole body, Payload and zero tail, so a frame whose body is
// a zero tail and its twin with the zeros stored take the same RNG
// draws and arrive as the same octets — on a same-shard hop (propDone)
// and on the cross-shard backbone (crossHandoff, crossDeliver) — and
// most flips land in the tail, which the corruption stores first.
func TestCorruptionDrawsOverZeroTail(t *testing.T) {
	const header, tail, frames = 13, 1400, 40
	run := func(stored bool, corrupt func(n *Network) *Port) (got [][]byte, inTail int) {
		g, part := twoCellGraph(5000)
		n, err := NewSharded(42, g, part, SwitchConfig{Latency: sim.Microsecond})
		if err != nil {
			t.Fatal(err)
		}
		installTwoCellRoutes(n.Switch(0), map[frame.MAC]int{n.Host(2).MAC(): n.PortIndex(0, 1)}, n.PortIndex(0, 0))
		installTwoCellRoutes(n.Switch(1), map[frame.MAC]int{n.Host(4).MAC(): n.PortIndex(1, 3)}, n.PortIndex(1, 0))
		corrupt(n).SetCorruptRate(1)
		a0, b0 := n.Host(2), n.Host(4)
		b0.OnReceive(func(f *frame.Frame) {
			got = append(got, f.Marshal())
			if f.ZeroTail == 0 && !stored {
				inTail++
			}
		})
		sent := 0
		a0.Engine().Every(1000, 20_000, sim.Func(func() { // a 1,413-byte body takes 11.3 µs at 1 Gb/s
			if sent++; sent > frames {
				return
			}
			f := &frame.Frame{Dst: b0.MAC(), Type: frame.TypeMLData, Payload: []byte("header-bytes!"), ZeroTail: tail}
			if stored {
				f.Payload, f.ZeroTail = append(f.Payload, make([]byte, tail)...), 0
			}
			a0.Send(f)
		}))
		n.Group.Run(sim.Time(20_000*(frames+5)), 1)
		return got, inTail
	}
	for _, c := range []struct {
		name    string
		corrupt func(n *Network) *Port
	}{
		{"host hop", func(n *Network) *Port { return n.Host(2).Port() }},
		{"cross-shard backbone", func(n *Network) *Port { return n.Switch(0).Port(n.PortIndex(0, 0)) }},
	} {
		want, _ := run(true, c.corrupt)
		got, inTail := run(false, c.corrupt)
		if len(want) != frames || !slices.EqualFunc(got, want, slices.Equal) {
			t.Fatalf("%s: %d frames with a zero tail and %d stored arrived differently", c.name, len(got), len(want))
		}
		if inTail < frames/2 {
			t.Fatalf("%s: %d of %d flips landed in the tail; the tail path is barely exercised", c.name, inTail, frames)
		}
	}
}
