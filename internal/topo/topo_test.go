package topo

import (
	"testing"
	"testing/quick"
)

func TestGraphBasics(t *testing.T) {
	g := NewGraph("g")
	a := g.AddNode("a", KindHost)
	b := g.AddNode("b", KindSwitch)
	e := g.AddEdge(a, b, 1e9, 100)
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatalf("counts = %d/%d", g.NumNodes(), g.NumEdges())
	}
	if g.Edge(e).Other(a) != b || g.Edge(e).Other(b) != a {
		t.Fatal("Other broken")
	}
	if g.Degree(a) != 1 || g.Degree(b) != 1 {
		t.Fatal("degree broken")
	}
	if g.Node(a).Kind != KindHost {
		t.Fatal("kind lost")
	}
}

func TestSelfLoopPanics(t *testing.T) {
	g := NewGraph("g")
	a := g.AddNode("a", KindHost)
	defer func() {
		if recover() == nil {
			t.Fatal("self-loop did not panic")
		}
	}()
	g.AddEdge(a, a, 1, 1)
}

func TestEdgeOtherPanicsForForeignNode(t *testing.T) {
	g := NewGraph("g")
	a := g.AddNode("a", KindHost)
	b := g.AddNode("b", KindHost)
	c := g.AddNode("c", KindHost)
	e := g.AddEdge(a, b, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Other with foreign node did not panic")
		}
	}()
	g.Edge(e).Other(c)
}

func TestNodesOfKind(t *testing.T) {
	g := NewGraph("g")
	g.AddNode("s", KindSwitch)
	g.AddNode("h1", KindHost)
	g.AddNode("h2", KindHost)
	if got := g.NodesOfKind(KindHost); len(got) != 2 {
		t.Fatalf("hosts = %v", got)
	}
	if got := g.NodesOfKind(KindServer); len(got) != 0 {
		t.Fatalf("servers = %v", got)
	}
}

func TestLineTopology(t *testing.T) {
	g := Line(4, 2, LinkOT1G, LinkOT100M)
	if got := len(g.NodesOfKind(KindSwitch)); got != 4 {
		t.Fatalf("switches = %d", got)
	}
	if got := len(g.NodesOfKind(KindHost)); got != 8 {
		t.Fatalf("hosts = %d", got)
	}
	if g.NumEdges() != 3+8 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
}

func TestRingClosesLoop(t *testing.T) {
	g := Ring(6, 1, LinkOT1G, LinkOT100M)
	if g.NumEdges() != 6+6 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	// Every switch in a ring has exactly 2 trunk neighbors + 1 host.
	for _, s := range g.NodesOfKind(KindSwitch) {
		if d := g.Degree(s); d != 3 {
			t.Fatalf("switch degree = %d", d)
		}
	}
}

func TestRingOfTwoHasNoParallelEdge(t *testing.T) {
	g := Ring(2, 0, LinkOT1G, LinkOT100M)
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
}

func TestLeafSpine(t *testing.T) {
	g := LeafSpine(4, 8, 4, LinkDC40G, LinkDC10G)
	if got := len(g.NodesOfKind(KindSwitch)); got != 12 {
		t.Fatalf("switches = %d", got)
	}
	if got := len(g.NodesOfKind(KindServer)); got != 32 {
		t.Fatalf("servers = %d", got)
	}
	if g.NumEdges() != 4*8+32 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	// Any server-to-server path crosses at most 3 switches (leaf-spine-leaf).
	r := NewRouter(g, HopCount)
	servers := g.NodesOfKind(KindServer)
	p, err := r.Path(servers[0], servers[31])
	if err != nil {
		t.Fatal(err)
	}
	if p.Hops() != 4 {
		t.Fatalf("cross-leaf hops = %d, want 4", p.Hops())
	}
}

func TestRouterShortestOnRing(t *testing.T) {
	g := Ring(6, 0, LinkOT1G, LinkOT100M)
	r := NewRouter(g, HopCount)
	// Opposite nodes on a 6-ring are 3 hops apart.
	p, err := r.Path(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.Hops() != 3 || !p.Valid(g) {
		t.Fatalf("path = %+v", p)
	}
}

func TestRouterNoPath(t *testing.T) {
	g := NewGraph("g")
	a := g.AddNode("a", KindHost)
	b := g.AddNode("b", KindHost)
	r := NewRouter(g, HopCount)
	if _, err := r.Path(a, b); err == nil {
		t.Fatal("no error for unreachable path")
	}
}

func TestRouterDeterministicTieBreak(t *testing.T) {
	g := LeafSpine(4, 2, 1, LinkDC40G, LinkDC10G)
	r := NewRouter(g, HopCount)
	servers := g.NodesOfKind(KindServer)
	p1, _ := r.Path(servers[0], servers[1])
	p2, _ := r.Path(servers[0], servers[1])
	if len(p1.Edges) != len(p2.Edges) {
		t.Fatal("path lengths differ")
	}
	for i := range p1.Edges {
		if p1.Edges[i] != p2.Edges[i] {
			t.Fatal("tie-break not deterministic")
		}
	}
}

// TestPathValidProperty: every path the router returns between two
// servers of a leaf-spine is valid in the graph and runs from the
// source to the destination.
func TestPathValidProperty(t *testing.T) {
	g := LeafSpine(4, 8, 2, LinkDC40G, LinkDC10G)
	r := NewRouter(g, HopCount)
	servers := g.NodesOfKind(KindServer)
	f := func(i, j uint8) bool {
		src := servers[int(i)%len(servers)]
		dst := servers[int(j)%len(servers)]
		if src == dst {
			return true
		}
		p, err := r.Path(src, dst)
		if err != nil {
			return false
		}
		return p.Valid(g) && p.Nodes[0] == src && p.Nodes[len(p.Nodes)-1] == dst
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropagationCostRouting(t *testing.T) {
	g := NewGraph("g")
	a := g.AddNode("a", KindHost)
	b := g.AddNode("b", KindHost)
	mid := g.AddNode("m", KindSwitch)
	g.AddEdge(a, b, 1e9, 10000) // direct but slow
	g.AddEdge(a, mid, 1e9, 100)
	g.AddEdge(mid, b, 1e9, 100)
	r := NewRouter(g, func(e Edge) float64 { return float64(e.PropNs) })
	p, err := r.Path(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if p.Hops() != 2 {
		t.Fatalf("took direct slow edge: %+v", p)
	}
}

func TestKindString(t *testing.T) {
	if KindSwitch.String() != "switch" || NodeKind(99).String() == "" {
		t.Fatal("kind strings broken")
	}
}
