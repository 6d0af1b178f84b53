package topo

import "fmt"

// LinkSpec gives the capacity and propagation delay used when a generator
// creates a class of links.
type LinkSpec struct {
	RateBps float64
	PropNs  int64
}

// Common link classes. Factory cabling is short (sub-µs propagation);
// the paper's OT networks are typically 100 Mb/s–1 Gb/s while DC fabrics
// run 10–100 Gb/s.
var (
	LinkOT100M = LinkSpec{RateBps: 100e6, PropNs: 500}
	LinkOT1G   = LinkSpec{RateBps: 1e9, PropNs: 500}
	LinkDC10G  = LinkSpec{RateBps: 10e9, PropNs: 500}
	LinkDC40G  = LinkSpec{RateBps: 40e9, PropNs: 500}
)

// Line builds the classic OT daisy-chain: switches in a row, hostsPer
// hosts hanging off each switch. Common along conveyor lines.
func Line(switches, hostsPer int, trunk, access LinkSpec) *Graph {
	g := NewGraph(fmt.Sprintf("line-%d", switches))
	addChain(g, switches, hostsPer, trunk, access)
	return g
}

// Ring builds the dominant resilient OT topology: a closed chain of
// switches (MRP-style ring) with hosts per switch.
func Ring(switches, hostsPer int, trunk, access LinkSpec) *Graph {
	g := NewGraph(fmt.Sprintf("ring-%d", switches))
	sw := addChain(g, switches, hostsPer, trunk, access)
	if switches > 2 {
		g.AddEdge(sw[len(sw)-1], sw[0], trunk.RateBps, trunk.PropNs)
	}
	return g
}

func addChain(g *Graph, switches, hostsPer int, trunk, access LinkSpec) []NodeID {
	if switches < 1 {
		panic("topo: need at least one switch")
	}
	sw := make([]NodeID, switches)
	for i := range sw {
		sw[i] = g.AddNode(fmt.Sprintf("sw%d", i), KindSwitch)
		if i > 0 {
			g.AddEdge(sw[i-1], sw[i], trunk.RateBps, trunk.PropNs)
		}
	}
	for i, s := range sw {
		for h := 0; h < hostsPer; h++ {
			host := g.AddNode(fmt.Sprintf("h%d.%d", i, h), KindHost)
			g.AddEdge(s, host, access.RateBps, access.PropNs)
		}
	}
	return sw
}

// LeafSpine builds the standard two-tier DC fabric: every leaf connects
// to every spine; hostsPerLeaf servers hang off each leaf.
func LeafSpine(spines, leaves, hostsPerLeaf int, fabric, access LinkSpec) *Graph {
	if spines < 1 || leaves < 1 {
		panic("topo: leaf-spine needs spines >= 1 and leaves >= 1")
	}
	g := NewGraph(fmt.Sprintf("leafspine-%dx%d", spines, leaves))
	sp := make([]NodeID, spines)
	for i := range sp {
		sp[i] = g.AddNode(fmt.Sprintf("spine%d", i), KindSwitch)
	}
	for l := 0; l < leaves; l++ {
		leaf := g.AddNode(fmt.Sprintf("leaf%d", l), KindSwitch)
		for _, s := range sp {
			g.AddEdge(leaf, s, fabric.RateBps, fabric.PropNs)
		}
		for h := 0; h < hostsPerLeaf; h++ {
			host := g.AddNode(fmt.Sprintf("srv%d.%d", l, h), KindServer)
			g.AddEdge(leaf, host, access.RateBps, access.PropNs)
		}
	}
	return g
}
