package topo

import "fmt"

// CampusConfig sizes a synthetic plant-campus topology: Cells
// production cells, each a tree of SwitchesPerCell switches (the tree
// root doubles as the cell gateway) with HostsPerSwitch field devices
// per switch, joined by a spine backbone of Spines switches. Every
// gateway uplinks to every spine, so the backbone is the only cut
// between cells — and its propagation delay is the natural conservative
// lookahead for sharded execution.
type CampusConfig struct {
	Cells           int
	SwitchesPerCell int
	HostsPerSwitch  int
	Spines          int
	// Fanout is the in-cell switch tree arity (default 4).
	Fanout int
	// Access wires hosts to switches, Trunk wires in-cell switch trees,
	// Backbone wires gateways to spines. Backbone.PropNs must be
	// positive: it is the cross-shard lookahead. Campus-scale backbones
	// run long fiber, so the default is 5 µs.
	Access, Trunk, Backbone LinkSpec
}

func (c *CampusConfig) setDefaults() {
	if c.Cells <= 0 {
		c.Cells = 4
	}
	if c.SwitchesPerCell <= 0 {
		c.SwitchesPerCell = 8
	}
	if c.HostsPerSwitch < 0 {
		c.HostsPerSwitch = 0
	}
	if c.Spines <= 0 {
		c.Spines = 2
	}
	if c.Fanout <= 0 {
		c.Fanout = 4
	}
	if c.Access == (LinkSpec{}) {
		c.Access = LinkOT1G
	}
	if c.Trunk == (LinkSpec{}) {
		c.Trunk = LinkDC10G
	}
	if c.Backbone == (LinkSpec{}) {
		c.Backbone = LinkSpec{RateBps: 100e9, PropNs: 5000}
	}
}

// CampusTopo is a generated campus graph plus the structural indexes a
// sharded simulation needs: which switches form each cell tree (index 0
// is the gateway/root, parent of index i is (i-1)/Fanout), which hosts
// hang off which switch, and the spine IDs.
type CampusTopo struct {
	Graph *Graph
	Cfg   CampusConfig
	// Spines lists the backbone switch node IDs.
	Spines []NodeID
	// CellSwitches[c][i] is switch i of cell c; i=0 is the gateway.
	CellSwitches [][]NodeID
	// CellHosts[c][i*HostsPerSwitch+h] is host h on switch i of cell c.
	CellHosts [][]NodeID
}

// Campus generates the topology. Node and edge IDs are assigned in a
// fixed order (spines, then per cell: switches, hosts; edges per cell:
// trunks, access links, uplinks), so the same config always yields the
// identical graph. Every count is known up front, so nodes, edges and
// incidence lists are each allocated once at their final size.
func Campus(cfg CampusConfig) *CampusTopo {
	cfg.setDefaults()
	perCell := cfg.SwitchesPerCell * (1 + cfg.HostsPerSwitch)
	edgesPerCell := cfg.SwitchesPerCell - 1 + cfg.SwitchesPerCell*cfg.HostsPerSwitch + cfg.Spines
	g := newSizedGraph(fmt.Sprintf("campus-%dx%d", cfg.Cells, cfg.SwitchesPerCell),
		cfg.Spines+cfg.Cells*perCell, cfg.Cells*edgesPerCell)
	ct := &CampusTopo{
		Graph:        g,
		Cfg:          cfg,
		Spines:       make([]NodeID, cfg.Spines),
		CellSwitches: make([][]NodeID, cfg.Cells),
		CellHosts:    make([][]NodeID, cfg.Cells),
	}
	for s := 0; s < cfg.Spines; s++ {
		ct.Spines[s] = g.AddNode(fmt.Sprintf("spine%d", s), KindSwitch)
	}
	for c := 0; c < cfg.Cells; c++ {
		sw := make([]NodeID, cfg.SwitchesPerCell)
		for i := range sw {
			sw[i] = g.AddNode(fmt.Sprintf("c%d.s%d", c, i), KindSwitch)
		}
		hosts := make([]NodeID, 0, cfg.SwitchesPerCell*cfg.HostsPerSwitch)
		for i := range sw {
			for h := 0; h < cfg.HostsPerSwitch; h++ {
				hosts = append(hosts, g.AddNode(fmt.Sprintf("c%d.s%d.h%d", c, i, h), KindHost))
			}
		}
		ct.CellSwitches[c] = sw
		ct.CellHosts[c] = hosts
	}
	g.carveAdjacency(func(n NodeID) int {
		k := int(n) - cfg.Spines
		switch {
		case k < 0:
			return cfg.Cells // a spine: one uplink per gateway
		case k%perCell >= cfg.SwitchesPerCell:
			return 1 // a host
		}
		// Cell switch i: its children in the tree, its hosts, and either
		// its parent or, at the gateway, the uplinks.
		i := k % perCell
		d := min(cfg.Fanout, max(0, cfg.SwitchesPerCell-1-cfg.Fanout*i)) + cfg.HostsPerSwitch
		if i == 0 {
			return d + cfg.Spines
		}
		return d + 1
	})
	for c := 0; c < cfg.Cells; c++ {
		sw := ct.CellSwitches[c]
		for i := 1; i < len(sw); i++ {
			g.AddEdge(sw[(i-1)/cfg.Fanout], sw[i], cfg.Trunk.RateBps, cfg.Trunk.PropNs)
		}
		for j, id := range ct.CellHosts[c] {
			g.AddEdge(sw[j/cfg.HostsPerSwitch], id, cfg.Access.RateBps, cfg.Access.PropNs)
		}
		// Gateway uplinks: the cell's only exits, all through the spine.
		for s := 0; s < cfg.Spines; s++ {
			g.AddEdge(sw[0], ct.Spines[s], cfg.Backbone.RateBps, cfg.Backbone.PropNs)
		}
	}
	return ct
}

// Partition returns the campus's native shard layout: the spine is
// shard 0 and cell c is shard c+1. Every cut edge is a backbone link,
// so the lookahead is Backbone.PropNs — the layout is a function of the
// topology alone, independent of worker counts.
func (ct *CampusTopo) Partition() Partition {
	p := Partition{Shards: ct.Cfg.Cells + 1, Of: make([]int, ct.Graph.NumNodes())}
	for _, id := range ct.Spines {
		p.Of[id] = 0
	}
	for c := range ct.CellSwitches {
		for _, id := range ct.CellSwitches[c] {
			p.Of[id] = c + 1
		}
		for _, id := range ct.CellHosts[c] {
			p.Of[id] = c + 1
		}
	}
	return p
}
