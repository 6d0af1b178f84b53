package simnet

import (
	"encoding/binary"
	"fmt"

	"steelnet/internal/frame"
	"steelnet/internal/sim"
	"steelnet/internal/topo"
)

// Network instantiates a topo.Graph as live simulated equipment: one
// Switch per switch node, one Host per host/server/io node, one Link per
// edge, each node on the engine of the shard Part places it on. Edges
// inside a shard are ordinary links; edges the partition cuts become
// cross-shard links whose propagation leg travels as a timestamped
// group message. Tables are slices indexed by the graph's dense ids, so
// every walk over the equipment is in id order.
//
// The partition is part of the scenario — it is derived from the
// topology (see topo.Partition) and folded into digests — while the
// worker count passed to Group.Run is free to vary without changing a
// single output byte.
type Network struct {
	Graph *topo.Graph
	// Part places nodes on shards: one class after Build, the caller's
	// partition after NewSharded.
	Part topo.Partition
	// Group coordinates the shards' engines; nil after Build, whose one
	// engine the caller drives.
	Group *sim.ShardGroup

	engines  []*sim.Engine // by shard
	switches []*Switch     // by topo.NodeID; nil at host nodes
	hosts    []*Host       // by topo.NodeID; nil at switch nodes
	links    []*Link       // by topo.EdgeID
	ports    [][2]int      // by topo.EdgeID: port index at the edge's A and B ends
}

// noCutLookahead is the window bound used when the partition has no cut
// edges at all: shards never interact, so any positive bound is sound;
// a huge one makes each Run a single window per shard.
const noCutLookahead = sim.Duration(1) << 56

// Build instantiates g on one engine, which the caller drives.
func Build(engine *sim.Engine, g *topo.Graph, cfg SwitchConfig) *Network {
	p := topo.Partition{Shards: 1, Of: make([]int, g.NumNodes())}
	return build(nil, []*sim.Engine{engine}, g, p, cfg)
}

// NewSharded instantiates g across a new shard group seeded with seed,
// one shard per partition class. The conservative lookahead is the
// minimum propagation delay over the partition's cut edges; a cut edge
// with zero propagation makes windowed sync unsound, so that returns
// sim.ErrZeroLookahead (wrapped).
func NewSharded(seed uint64, g *topo.Graph, p topo.Partition, cfg SwitchConfig) (*Network, error) {
	if err := p.Validate(g); err != nil {
		return nil, err
	}
	lookahead := noCutLookahead
	if min, ok := p.MinCutPropNs(g); ok {
		lookahead = sim.Duration(min)
	}
	group, err := sim.NewShardGroup(seed, p.Shards, lookahead)
	if err != nil {
		return nil, fmt.Errorf("simnet: partition of %q unusable: %w", g.Name, err)
	}
	engines := make([]*sim.Engine, p.Shards)
	for s := range engines {
		engines[s] = group.Shard(s)
	}
	return build(group, engines, g, p, cfg), nil
}

// build creates the equipment. Every switch's ports are cut, in node-id
// order, from one slab sized to the switches' summed degree, so ports
// cost the build one allocation; the slab never grows, and a port's
// address is fixed for the network's lifetime. Switch ports are
// numbered by the order of the node's incident edges, which is
// ascending edge id, so one pass over the edges hands each end its next
// free port.
func build(group *sim.ShardGroup, engines []*sim.Engine, g *topo.Graph, p topo.Partition, cfg SwitchConfig) *Network {
	n := &Network{
		Graph: g, Part: p, Group: group, engines: engines,
		switches: make([]*Switch, g.NumNodes()),
		hosts:    make([]*Host, g.NumNodes()),
		links:    make([]*Link, g.NumEdges()),
		ports:    make([][2]int, g.NumEdges()),
	}
	slots := 0
	for i := range n.switches {
		if id := topo.NodeID(i); g.Node(id).Kind == topo.KindSwitch {
			slots += g.Degree(id)
		}
	}
	slab := make([]Port, slots)
	for i := range n.switches {
		node := g.Node(topo.NodeID(i))
		eng := engines[p.Of[i]]
		if node.Kind == topo.KindSwitch {
			deg := g.Degree(node.ID)
			n.switches[i] = newSwitch(eng, node.Name, slab[:deg:deg], cfg)
			slab = slab[deg:]
			continue
		}
		if deg := g.Degree(node.ID); deg > 1 {
			panic(fmt.Sprintf("simnet: host %s has %d links; hosts are single-homed", node.Name, deg))
		}
		n.hosts[i] = NewHost(eng, node.Name, frame.NewMAC(uint32(i)))
	}
	nextPort := make([]int, g.NumNodes())
	for i := range n.links {
		e := g.Edge(topo.EdgeID(i))
		n.ports[i] = [2]int{nextPort[e.A], nextPort[e.B]}
		nextPort[e.A]++
		nextPort[e.B]++
		name := g.Node(e.A).Name + "--" + g.Node(e.B).Name
		pa, pb := n.port(e.A, n.ports[i][0]), n.port(e.B, n.ports[i][1])
		if sa, sb := p.Of[e.A], p.Of[e.B]; sa != sb {
			n.links[i] = ConnectCross(group, name, pa, pb, sa, sb, e.RateBps, sim.Duration(e.PropNs))
		} else {
			n.links[i] = Connect(engines[sa], name, pa, pb, e.RateBps, sim.Duration(e.PropNs))
		}
	}
	return n
}

// port returns port idx of node's switch, or node's host port.
func (n *Network) port(node topo.NodeID, idx int) *Port {
	if sw := n.switches[node]; sw != nil {
		return sw.Port(idx)
	}
	return n.hosts[node].Port()
}

// PortIndex returns which port of node attaches to edge. Constructive
// routing (static FIB entries plus default ports) is built from this.
func (n *Network) PortIndex(node topo.NodeID, edge topo.EdgeID) int {
	switch e := n.Graph.Edge(edge); node {
	case e.A:
		return n.ports[edge][0]
	case e.B:
		return n.ports[edge][1]
	}
	panic(fmt.Sprintf("simnet: node %d not on edge %d", node, edge))
}

// Switch returns the switch instantiated for graph node id; it panics
// when id is not a switch.
func (n *Network) Switch(id topo.NodeID) *Switch {
	sw := n.switches[id]
	if sw == nil {
		panic(fmt.Sprintf("simnet: node %d is not a switch", id))
	}
	return sw
}

// Host returns the host instantiated for graph node id; it panics when
// id is not a host.
func (n *Network) Host(id topo.NodeID) *Host {
	h := n.hosts[id]
	if h == nil {
		panic(fmt.Sprintf("simnet: node %d is not a host", id))
	}
	return h
}

// Link returns the link instantiated for graph edge id.
func (n *Network) Link(id topo.EdgeID) *Link { return n.links[id] }

// NodeByMAC returns the graph node owning mac, or -1. Host addresses
// are frame.NewMAC of the node id, so the id is read back out of mac.
func (n *Network) NodeByMAC(mac frame.MAC) topo.NodeID {
	id := binary.BigEndian.Uint32(mac[2:])
	if int(id) < len(n.hosts) && n.hosts[id] != nil && n.hosts[id].MAC() == mac {
		return topo.NodeID(id)
	}
	return -1
}

// SetSwitchQueueDepth applies SetQueueDepth to every switch in the
// network (hosts keep their defaults).
func (n *Network) SetSwitchQueueDepth(perClassLimit int) {
	for _, sw := range n.switches {
		if sw != nil {
			sw.SetQueueDepth(perClassLimit)
		}
	}
}

// InstallStaticRoutes programs every switch's FIB with the shortest-path
// port toward every host, eliminating flooding. Industrial networks are
// engineered and static after commissioning (§2.3); this is that
// commissioning step. Each switch takes its entries in host-id order,
// so a FIB's layout is the same on every build.
func (n *Network) InstallStaticRoutes() {
	r := topo.NewRouter(n.Graph, topo.HopCount)
	for swID, sw := range n.switches {
		if sw == nil {
			continue
		}
		for hostID, h := range n.hosts {
			if h == nil {
				continue
			}
			firstEdge, err := r.NextHop(topo.NodeID(swID), topo.NodeID(hostID))
			if err != nil {
				continue
			}
			sw.AddStatic(h.MAC(), n.PortIndex(topo.NodeID(swID), firstEdge))
		}
	}
}
