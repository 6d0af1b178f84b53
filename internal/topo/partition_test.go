package topo

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
)

func TestCampusShape(t *testing.T) {
	cfg := CampusConfig{Cells: 3, SwitchesPerCell: 5, HostsPerSwitch: 2, Spines: 2}
	ct := Campus(cfg)
	g := ct.Graph
	wantNodes := 2 + 3*(5+5*2)
	if g.NumNodes() != wantNodes {
		t.Fatalf("nodes = %d, want %d", g.NumNodes(), wantNodes)
	}
	// Edges: per cell 4 trunk + 10 access + 2 backbone.
	if want := 3 * (4 + 10 + 2); g.NumEdges() != want {
		t.Fatalf("edges = %d, want %d", g.NumEdges(), want)
	}
	r := NewRouter(g, HopCount)
	for n := range g.NumNodes() {
		if _, err := r.Path(0, NodeID(n)); err != nil {
			t.Fatalf("campus graph is disconnected: %v", err)
		}
	}
	for c, sw := range ct.CellSwitches {
		if len(sw) != 5 {
			t.Fatalf("cell %d has %d switches", c, len(sw))
		}
		if len(ct.CellHosts[c]) != 10 {
			t.Fatalf("cell %d has %d hosts", c, len(ct.CellHosts[c]))
		}
	}
}

// TestCampusMaxSwitchDegree: the degree bound read off the config is
// the largest degree of any switch in the generated graph — a spine's
// when cells outnumber a gateway's links, a gateway's otherwise, and a
// fanout wider than the cell tree counts only the children it has.
func TestCampusMaxSwitchDegree(t *testing.T) {
	for _, cfg := range []CampusConfig{
		{},
		{Cells: 3, SwitchesPerCell: 5, HostsPerSwitch: 2, Spines: 2},
		{Cells: 9, SwitchesPerCell: 2, Spines: 1},
		{Cells: 2, SwitchesPerCell: 3, HostsPerSwitch: 1, Spines: 3, Fanout: 8},
		{Cells: 2, SwitchesPerCell: 1, HostsPerSwitch: 4, Spines: 1},
	} {
		ct := Campus(cfg)
		most := 0
		for _, n := range ct.Graph.NodesOfKind(KindSwitch) {
			most = max(most, len(ct.Graph.Incident(n)))
		}
		if got := cfg.MaxSwitchDegree(); got != most {
			t.Errorf("%+v: MaxSwitchDegree = %d, the graph's largest switch degree is %d", cfg, got, most)
		}
	}
}

// TestCampusNodesAtMost: the node bound read off the config admits the
// generated graph's node count exactly and one node less refuses it, and
// sizes whose product overflows an int are refused, not wrapped.
func TestCampusNodesAtMost(t *testing.T) {
	for _, cfg := range []CampusConfig{
		{},
		{Cells: 3, SwitchesPerCell: 5, HostsPerSwitch: 2, Spines: 2},
		{Cells: 2, SwitchesPerCell: 1, Spines: 1},
	} {
		n := Campus(cfg).Graph.NumNodes()
		if !cfg.NodesAtMost(n) || cfg.NodesAtMost(n-1) {
			t.Errorf("%+v: NodesAtMost(%d) = %v, NodesAtMost(%d) = %v; the graph has %d nodes",
				cfg, n, cfg.NodesAtMost(n), n-1, cfg.NodesAtMost(n-1), n)
		}
	}
	// 2^80 nodes under 2^62 where int is 64 bits, 2^71 under 2^31−1
	// where it is 32; then every count at math.MaxInt. The product
	// must not wrap into the limit.
	for _, huge := range []struct {
		cfg   CampusConfig
		limit int
	}{
		{CampusConfig{Cells: 1 << 20, SwitchesPerCell: min(1<<40, math.MaxInt), HostsPerSwitch: 1 << 20, Spines: 1}, min(1<<62, math.MaxInt)},
		{CampusConfig{Cells: math.MaxInt, SwitchesPerCell: math.MaxInt, HostsPerSwitch: math.MaxInt, Spines: 1}, math.MaxInt},
	} {
		if huge.cfg.NodesAtMost(huge.limit) {
			t.Errorf("%+v: admitted under %d nodes", huge.cfg, huge.limit)
		}
	}
}

func TestCampusPartitionCutIsBackbone(t *testing.T) {
	ct := Campus(CampusConfig{Cells: 4, SwitchesPerCell: 6, HostsPerSwitch: 1, Spines: 3})
	p := ct.Partition()
	if err := p.Validate(ct.Graph); err != nil {
		t.Fatal(err)
	}
	if p.Shards != 5 {
		t.Fatalf("shards = %d, want 5", p.Shards)
	}
	cut := 0
	for _, e := range ct.Graph.Edges() {
		if p.Of[e.A] == p.Of[e.B] {
			continue
		}
		cut++
		if e.PropNs != ct.Cfg.Backbone.PropNs {
			t.Fatalf("cut edge %d has prop %d, want backbone %d", e.ID, e.PropNs, ct.Cfg.Backbone.PropNs)
		}
	}
	if want := 4 * 3; cut != want {
		t.Fatalf("cut has %d edges, want %d (gateways x spines)", cut, want)
	}
	min, ok := p.MinCutPropNs(ct.Graph)
	if !ok || min != ct.Cfg.Backbone.PropNs {
		t.Fatalf("min cut prop = %d,%v, want %d,true", min, ok, ct.Cfg.Backbone.PropNs)
	}
}

func TestCampusDeterministic(t *testing.T) {
	cfg := CampusConfig{Cells: 2, SwitchesPerCell: 4, HostsPerSwitch: 2, Spines: 2}
	a, b := Campus(cfg), Campus(cfg)
	if a.Graph.NumNodes() != b.Graph.NumNodes() || a.Graph.NumEdges() != b.Graph.NumEdges() {
		t.Fatal("same config produced different graph sizes")
	}
	for i, n := range a.Graph.Nodes() {
		if m := b.Graph.Nodes()[i]; n != m {
			t.Fatalf("node %d differs: %+v vs %+v", i, n, m)
		}
	}
	for i, e := range a.Graph.Edges() {
		if f := b.Graph.Edges()[i]; e != f {
			t.Fatalf("edge %d differs: %+v vs %+v", i, e, f)
		}
	}
}

// incrementalCampus is the campus generator as it was before it sized
// its tables: nodes and edges interleaved, every slice grown by append.
// It is the oracle for the sized build.
func incrementalCampus(cfg CampusConfig) *CampusTopo {
	cfg.setDefaults()
	g := NewGraph(fmt.Sprintf("campus-%dx%d", cfg.Cells, cfg.SwitchesPerCell))
	ct := &CampusTopo{Graph: g, Cfg: cfg, Spines: make([]NodeID, cfg.Spines),
		CellSwitches: make([][]NodeID, cfg.Cells), CellHosts: make([][]NodeID, cfg.Cells)}
	for s := range ct.Spines {
		ct.Spines[s] = g.AddNode(fmt.Sprintf("spine%d", s), KindSwitch)
	}
	for c := 0; c < cfg.Cells; c++ {
		sw := make([]NodeID, cfg.SwitchesPerCell)
		for i := range sw {
			sw[i] = g.AddNode(fmt.Sprintf("c%d.s%d", c, i), KindSwitch)
			if i > 0 {
				g.AddEdge(sw[(i-1)/cfg.Fanout], sw[i], cfg.Trunk.RateBps, cfg.Trunk.PropNs)
			}
		}
		var hosts []NodeID
		for i := range sw {
			for h := 0; h < cfg.HostsPerSwitch; h++ {
				id := g.AddNode(fmt.Sprintf("c%d.s%d.h%d", c, i, h), KindHost)
				g.AddEdge(sw[i], id, cfg.Access.RateBps, cfg.Access.PropNs)
				hosts = append(hosts, id)
			}
		}
		for s := range ct.Spines {
			g.AddEdge(sw[0], ct.Spines[s], cfg.Backbone.RateBps, cfg.Backbone.PropNs)
		}
		ct.CellSwitches[c], ct.CellHosts[c] = sw, hosts
	}
	return ct
}

// TestCampusSizedMatchesIncremental checks that the sized campus build
// yields the graph the incremental one does — same nodes, edges,
// incidence lists and indexes — and that every incidence list was carved
// at exactly its degree, so no append moved one.
func TestCampusSizedMatchesIncremental(t *testing.T) {
	for _, cfg := range []CampusConfig{
		{Cells: 3, SwitchesPerCell: 5, HostsPerSwitch: 2, Spines: 2},
		{Cells: 2, SwitchesPerCell: 22, HostsPerSwitch: 1, Spines: 4, Fanout: 3},
		{Cells: 1, SwitchesPerCell: 1, HostsPerSwitch: 0, Spines: 1},
		{Cells: 4, SwitchesPerCell: 9, HostsPerSwitch: 0, Spines: 3, Fanout: 1},
		{Cells: 2, SwitchesPerCell: 313, HostsPerSwitch: 1, Spines: 4},
	} {
		got, want := Campus(cfg), incrementalCampus(cfg)
		gg, wg := got.Graph, want.Graph
		if gg.Name != wg.Name || !slices.Equal(gg.Nodes(), wg.Nodes()) || !slices.Equal(gg.Edges(), wg.Edges()) {
			t.Fatalf("%+v: sized graph differs from the incremental build", cfg)
		}
		for n := range gg.adj {
			if !slices.Equal(gg.Incident(NodeID(n)), wg.Incident(NodeID(n))) {
				t.Fatalf("%+v: node %d incident %v, want %v", cfg, n, gg.Incident(NodeID(n)), wg.Incident(NodeID(n)))
			}
			if len(gg.adj[n]) != cap(gg.adj[n]) {
				t.Fatalf("%+v: node %d carved with room for %d edges, has %d", cfg, n, cap(gg.adj[n]), len(gg.adj[n]))
			}
		}
		if cap(gg.nodes) != len(gg.nodes) || cap(gg.edges) != len(gg.edges) {
			t.Fatalf("%+v: sized for %d nodes / %d edges, built %d / %d", cfg, cap(gg.nodes), cap(gg.edges), len(gg.nodes), len(gg.edges))
		}
		if !reflect.DeepEqual(got.Spines, want.Spines) || !reflect.DeepEqual(got.CellSwitches, want.CellSwitches) ||
			!slices.EqualFunc(got.CellHosts, want.CellHosts, slices.Equal) {
			t.Fatalf("%+v: campus indexes differ", cfg)
		}
	}
}

func TestPartitionValidateRejects(t *testing.T) {
	g := Line(1, 3, LinkOT1G, LinkOT1G)
	if err := (Partition{Shards: 2, Of: []int{0, 1}}).Validate(g); err == nil {
		t.Fatal("short Of accepted")
	}
	bad := Partition{Shards: 2, Of: make([]int, g.NumNodes())}
	bad.Of[0] = 7
	if err := bad.Validate(g); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
	empty := Partition{Shards: 3, Of: make([]int, g.NumNodes())}
	if err := empty.Validate(g); err == nil {
		t.Fatal("empty shard accepted")
	}
}
