// Package mltopo reproduces §5's simulation-based topology comparison
// (Fig. 6): the same population of ML inference clients is placed on a
// classic industrial ring, an IT leaf-spine, and a traffic-aware
// ("ML-aware") topology produced by a placement-and-dimensioning
// optimizer, and per-request latency is measured as the client count
// grows. The ring suffers trunk sharing and long converge paths; the
// leaf-spine fixes the fabric but still funnels requests across it to
// centrally-pooled servers; the ML-aware design co-locates fog servers
// with client pods and dimensions the few links that stay hot — which
// is exactly the paper's argument for traffic-aware industrial design.
package mltopo

import (
	"fmt"
	"time"

	"steelnet/internal/frame"
	intnet "steelnet/internal/int"
	"steelnet/internal/mlwork"
	"steelnet/internal/sim"
	"steelnet/internal/simnet"
	"steelnet/internal/sweep"
	"steelnet/internal/topo"
)

// intMaxHops bounds mltopo INT stacks: ring topologies can cross far
// more than the frame-level default of 8 switches.
const intMaxHops = 16

// Kind selects one of the three compared topologies.
type Kind int

// Topology kinds, in the paper's legend order.
const (
	LeafSpine Kind = iota
	Ring
	MLAware
)

// String names the kind as in Fig. 6's legend.
func (k Kind) String() string {
	switch k {
	case LeafSpine:
		return "Leaf Spine"
	case Ring:
		return "Ring"
	case MLAware:
		return "ML-aware"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Kinds lists all compared topologies.
var Kinds = []Kind{LeafSpine, Ring, MLAware}

// Scenario is one simulation cell of Fig. 6.
type Scenario struct {
	Seed    uint64
	Kind    Kind
	Clients int
	Profile mlwork.Profile
	// Deg is the input degradation clients apply (compression chosen by
	// the quality/quantity trade; see mlwork.ChooseCompression).
	Deg mlwork.Degradation
	// Horizon bounds the simulated time.
	Horizon time.Duration
	// ClientsPerServer sets the shared compute budget: one server per
	// this many clients, identical across topologies so only the
	// network differs.
	ClientsPerServer int
	// PlacementOnly disables the ML-aware optimizer's link
	// dimensioning (trunks stay at the 1 Gb/s floor and fog servers on
	// 1 Gb/s attachments) — the ablation separating the two halves of
	// the traffic-aware design.
	PlacementOnly bool
	// INT makes every camera an INT source (flow = client id) and every
	// inference server a sink: request frames arrive carrying the per-
	// switch residence times of their actual path through the fabric.
	INT bool
	// Sinks are the cell's telemetry attachments: Trace records its
	// frame lifecycle, Metrics receives every component counter,
	// Collector receives terminated INT stacks (nil with INT set: the
	// harness collects into one of its own).
	sweep.Sinks
}

// DefaultScenario fills the Fig. 6 defaults for a kind/app/client cell.
// The legacy topologies (ring, leaf-spine) carry raw camera streams —
// they are network-only designs. The ML-aware design additionally
// applies the quality/quantity trade the paper cites as its input
// ([88]): clients compress as far as a ≥94% predicted-accuracy floor
// allows, which is part of what "aligns inference accuracy with
// network dimensioning".
func DefaultScenario(kind Kind, p mlwork.Profile, clients int) Scenario {
	deg := mlwork.Degradation{CompressionRatio: 1}
	if kind == MLAware {
		deg.CompressionRatio = p.ChooseCompression(0.94, []float64{1, 2, 4, 8})
	}
	return Scenario{
		Seed:             1,
		Kind:             kind,
		Clients:          clients,
		Profile:          p,
		Deg:              deg,
		Horizon:          2 * time.Second,
		ClientsPerServer: 16,
	}
}

// Result is one measured cell.
type Result struct {
	Kind    Kind
	App     string
	Clients int
	// MeanLatencyMS and P99LatencyMS summarize request latency.
	MeanLatencyMS, P99LatencyMS float64
	// LossRate is the fraction of requests with no reply.
	LossRate float64
	// Requests counts completed request/response pairs.
	Requests uint64
}

// plant is one topology kind's design for a scenario: the graph, where
// its cameras and inference servers attach, and which server each
// client uses (assign nil means round-robin).
type plant struct {
	g                      *topo.Graph
	clientNode, serverNode []topo.NodeID
	assign                 func(i int) int
}

// built is the instantiated simulation: hosts wired, ready to start.
type built struct {
	engine  *sim.Engine
	net     *simnet.Network
	clients []*mlwork.Client
	servers []*mlwork.Server
	coll    *intnet.Collector
}

// Run executes one scenario and returns its measurements. It is the
// straight-through form of the Harness.
func Run(sc Scenario) Result {
	h := NewHarness(sc)
	h.AdvanceTo(h.Horizon())
	return h.Result()
}

func serverCount(sc Scenario) int {
	n := (sc.Clients + sc.ClientsPerServer - 1) / sc.ClientsPerServer
	if n < 1 {
		n = 1
	}
	return n
}

// assign spreads clients over servers round-robin (hash assignment, as
// a location-unaware orchestrator would).
func assign(i, servers int) int { return i % servers }

// buildRing: the legacy OT shape. One switch per 8 clients closed into
// a ring of 1 Gb/s trunks; all inference servers sit in the control
// cabinet at switch 0 (where compute traditionally lives), so requests
// converge over shared trunk links.
func buildRing(sc Scenario) plant {
	// One switch per two stations, as on a daisy-chained production
	// line: the ring's diameter grows with the plant.
	nSw := sc.Clients / 2
	if nSw < 4 {
		nSw = 4
	}
	g := topo.NewGraph("ml-ring")
	sw := make([]topo.NodeID, nSw)
	for i := range sw {
		sw[i] = g.AddNode(fmt.Sprintf("sw%d", i), topo.KindSwitch)
		if i > 0 {
			g.AddEdge(sw[i-1], sw[i], 1e9, 500)
		}
	}
	g.AddEdge(sw[nSw-1], sw[0], 1e9, 500)
	nSrv := serverCount(sc)
	clientNode := make([]topo.NodeID, sc.Clients)
	serverNode := make([]topo.NodeID, nSrv)
	for i := 0; i < sc.Clients; i++ {
		clientNode[i] = g.AddNode(fmt.Sprintf("cam%d", i), topo.KindHost)
		g.AddEdge(sw[(i/2)%nSw], clientNode[i], 1e9, 500)
	}
	for i := 0; i < nSrv; i++ {
		serverNode[i] = g.AddNode(fmt.Sprintf("srv%d", i), topo.KindServer)
		g.AddEdge(sw[0], serverNode[i], 1e9, 500)
	}
	return plant{g: g, clientNode: clientNode, serverNode: serverNode}
}

// buildLeafSpine: the IT shape. 4 spines, one leaf per 16 endpoints,
// 2.5 Gb/s fabric (a mid-range industrial-DC build), 1 Gb/s access.
// Servers are pooled on a dedicated compute leaf, so most requests
// cross the fabric (the paper: "the leaf spine can only slightly
// improve the performance").
func buildLeafSpine(sc Scenario) plant {
	nSrv := serverCount(sc)
	leaves := (sc.Clients+15)/16 + 1 // +1 compute leaf
	g := topo.NewGraph("ml-leafspine")
	spines := make([]topo.NodeID, 4)
	for i := range spines {
		spines[i] = g.AddNode(fmt.Sprintf("spine%d", i), topo.KindSwitch)
	}
	leaf := make([]topo.NodeID, leaves)
	for i := range leaf {
		leaf[i] = g.AddNode(fmt.Sprintf("leaf%d", i), topo.KindSwitch)
		for _, s := range spines {
			g.AddEdge(leaf[i], s, 2.5e9, 500)
		}
	}
	clientNode := make([]topo.NodeID, sc.Clients)
	for i := 0; i < sc.Clients; i++ {
		clientNode[i] = g.AddNode(fmt.Sprintf("cam%d", i), topo.KindHost)
		g.AddEdge(leaf[i/16], clientNode[i], 1e9, 500)
	}
	serverNode := make([]topo.NodeID, nSrv)
	compute := leaf[leaves-1]
	for i := 0; i < nSrv; i++ {
		serverNode[i] = g.AddNode(fmt.Sprintf("srv%d", i), topo.KindServer)
		g.AddEdge(compute, serverNode[i], 1e9, 500)
	}
	return plant{g: g, clientNode: clientNode, serverNode: serverNode}
}

// instantiate commissions net — the plant's graph as equipment — and
// attaches the clients and servers, each on its host's own engine. The
// cell's one tracer and its shared frame pool are what still assume a
// single shard; e is the engine the harness drives.
func instantiate(e *sim.Engine, net *simnet.Network, sc Scenario, pl plant) built {
	clientNode, serverNode := pl.clientNode, pl.serverNode
	// Byte-deep buffers: commodity switches hold hundreds of KB per
	// port; the default 256-frame class limit would incast-drop the
	// fragmented camera frames and turn queueing into loss.
	net.SetSwitchQueueDepth(4096)
	net.InstallStaticRoutes()
	if sc.Trace != nil {
		net.SetTracer(0, sc.Trace)
	}
	if sc.Metrics != nil {
		net.RegisterMetrics(sc.Metrics)
	}
	b := built{engine: e, net: net}
	if sc.INT {
		b.coll = sc.Collector
		if b.coll == nil {
			b.coll = intnet.NewCollector()
		}
	}
	// One frame pool per cell: request fragments die at the server and
	// responses die at the client, so per-endpoint pools leave every
	// client allocating fresh ~MTU payloads forever while the server
	// free list grows. A shared pool closes that loop; a fragment or
	// response stores only its 13-byte header, its body being a zero
	// tail, so a recycled frame's bytes are a fresh one's. Telemetry
	// stacks recycle through it the same way: camera sources attach,
	// server sinks strip.
	pool := &frame.Pool{}
	servers := make([]*mlwork.Server, len(serverNode))
	for i, n := range serverNode {
		h := net.Host(n)
		servers[i] = mlwork.AttachServer(h.Engine(), h, sc.Profile)
		servers[i].UsePool(pool)
		if b.coll != nil {
			h.SetINTSink(b.coll)
		}
	}
	clients := make([]*mlwork.Client, len(clientNode))
	for i, n := range clientNode {
		sIdx := assign(i, len(serverNode))
		if pl.assign != nil {
			sIdx = pl.assign(i)
		}
		h := net.Host(n)
		clients[i] = mlwork.AttachClient(h.Engine(), h, uint32(i+1), net.Host(serverNode[sIdx]).MAC(), sc.Profile, sc.Deg)
		clients[i].UsePool(pool)
		if b.coll != nil {
			// Flow = client id, matching mlwork's request flow labels.
			// Non-strict: telemetry must never cost a camera frame.
			h.SetINTSource(uint32(i+1), intMaxHops, false)
		}
	}
	b.clients = clients
	b.servers = servers
	return b
}
