package simnet

import (
	"encoding/binary"
	"fmt"

	"steelnet/internal/frame"
	"steelnet/internal/sim"
	"steelnet/internal/topo"
)

// Blueprint is the immutable half of a network build: the graph, its
// partition into shards, each edge's port indices, each link's name and
// the slab sizes, plus, once WithStaticRoutes has made them, every
// switch's static-route FIB image. A blueprint is never written after
// it is made, so any number of goroutines may Instantiate it at once,
// and its instances share what it holds: the graph and the FIB images,
// which each switch reads until its first FIB write (learning,
// AddStatic, FlushDynamic's rebuild) gives it a table of its own.
//
// The partition is part of the scenario — it is derived from the
// topology (see topo.Partition) and folded into digests — while the
// worker count passed to Group.Run is free to vary without changing a
// single output byte.
type Blueprint struct {
	Graph *topo.Graph
	Part  topo.Partition

	lookahead sim.Duration
	ports     [][2]int // by topo.EdgeID: port index at the edge's A and B ends
	names     []string // by topo.EdgeID: link names
	// nports, nswitches and nhosts size the slabs: the switches' summed
	// degree, the switch count and the host count.
	nports, nswitches, nhosts int
	// fibs holds the switches' FIB images in node-id order; nil when
	// the switches start empty.
	fibs []fibTable
}

// noCutLookahead is the window bound used when the partition has no cut
// edges at all: shards never interact, so any positive bound is sound;
// a huge one makes each Run a single window per shard.
const noCutLookahead = sim.Duration(1) << 56

// NewBlueprint lays g out on one shard, for instances on one engine.
func NewBlueprint(g *topo.Graph) *Blueprint {
	return layout(g, topo.Partition{Shards: 1, Of: make([]int, g.NumNodes())})
}

// NewShardedBlueprint lays g out across partition p, which it
// validates first.
func NewShardedBlueprint(g *topo.Graph, p topo.Partition) (*Blueprint, error) {
	if err := p.Validate(g); err != nil {
		return nil, err
	}
	return layout(g, p), nil
}

// layout makes g's blueprint on p. Switch ports are numbered by the
// order of the node's incident edges, which is ascending edge id, so
// one pass over the edges hands each end its next free port. A host's
// address is frame.NewMAC of its id, so it is not stored. The lookahead
// of the instances' shard groups is the minimum propagation delay over
// p's cut edges.
func layout(g *topo.Graph, p topo.Partition) *Blueprint {
	b := &Blueprint{
		Graph: g, Part: p, lookahead: noCutLookahead,
		ports: make([][2]int, g.NumEdges()),
		names: make([]string, g.NumEdges()),
	}
	if min, ok := p.MinCutPropNs(g); ok {
		b.lookahead = sim.Duration(min)
	}
	for i := range g.NumNodes() {
		node := g.Node(topo.NodeID(i))
		deg := g.Degree(node.ID)
		if node.Kind == topo.KindSwitch {
			b.nports += deg
			b.nswitches++
			continue
		}
		if deg > 1 {
			panic(fmt.Sprintf("simnet: host %s has %d links; hosts are single-homed", node.Name, deg))
		}
		b.nhosts++
	}
	nextPort := make([]int, g.NumNodes())
	for i := range b.ports {
		e := g.Edge(topo.EdgeID(i))
		b.ports[i] = [2]int{nextPort[e.A], nextPort[e.B]}
		nextPort[e.A]++
		nextPort[e.B]++
		b.names[i] = g.Node(e.A).Name + "--" + g.Node(e.B).Name
	}
	return b
}

// WithStaticRoutes returns a copy of b whose switches start with the
// shortest-path port toward every host they reach, eliminating
// flooding. Industrial networks are engineered and static after
// commissioning (§2.3); this is that commissioning step, done once for
// every instance. Each image is sized for every host before its
// entries go in, so it is built once, at its final size.
func (b *Blueprint) WithStaticRoutes() *Blueprint {
	g := b.Graph
	r := topo.NewRouter(g, topo.HopCount)
	routed := *b
	routed.fibs = make([]fibTable, 0, b.nswitches)
	for _, sw := range g.NodesOfKind(topo.KindSwitch) {
		t := emptyFIB
		t.reserve(b.nhosts)
		for host := range g.NumNodes() {
			if g.Node(topo.NodeID(host)).Kind == topo.KindSwitch {
				continue
			}
			if edge, err := r.NextHop(sw, topo.NodeID(host)); err == nil {
				t.put(frame.NewMAC(uint32(host)), fibEntry{port: int32(b.PortIndex(sw, edge)), static: true})
			}
		}
		t.shared = true
		routed.fibs = append(routed.fibs, t)
	}
	return &routed
}

// PortIndex returns which port of node attaches to edge. Constructive
// routing (static FIB entries plus default ports) is built from this.
func (b *Blueprint) PortIndex(node topo.NodeID, edge topo.EdgeID) int {
	switch e := b.Graph.Edge(edge); node {
	case e.A:
		return b.ports[edge][0]
	case e.B:
		return b.ports[edge][1]
	}
	panic(fmt.Sprintf("simnet: node %d not on edge %d", node, edge))
}

// Network is a live instance of a Blueprint: one Switch per switch
// node, one Host per host/server/io node, one Link per edge, each node
// on the engine of the shard its partition places it on. Edges inside a
// shard are ordinary links; edges the partition cuts become cross-shard
// links whose propagation leg travels as a timestamped group message.
// Tables are slices indexed by the graph's dense ids, so every walk over
// the equipment is in id order.
type Network struct {
	Graph *topo.Graph
	// Part places nodes on shards: the blueprint's partition.
	Part topo.Partition
	// Group coordinates the shards' engines; nil on an instance on one
	// engine, which the caller drives.
	Group *sim.ShardGroup

	bp       *Blueprint
	engines  []*sim.Engine // by shard
	switches []*Switch     // by topo.NodeID; nil at host nodes
	hosts    []*Host       // by topo.NodeID; nil at switch nodes
	links    []Link        // by topo.EdgeID
}

// Build instantiates g on one engine, which the caller drives.
func Build(engine *sim.Engine, g *topo.Graph, cfg SwitchConfig) *Network {
	return NewBlueprint(g).Instantiate(engine, cfg)
}

// NewSharded instantiates g across a new shard group seeded with seed,
// one shard per partition class; see InstantiateSharded.
func NewSharded(seed uint64, g *topo.Graph, p topo.Partition, cfg SwitchConfig) (*Network, error) {
	b, err := NewShardedBlueprint(g, p)
	if err != nil {
		return nil, err
	}
	return b.InstantiateSharded(seed, cfg)
}

// Instantiate builds a live network of a one-shard blueprint on engine,
// which the caller drives.
func (b *Blueprint) Instantiate(engine *sim.Engine, cfg SwitchConfig) *Network {
	if b.Part.Shards != 1 {
		panic(fmt.Sprintf("simnet: Instantiate on a blueprint of %d shards; use InstantiateSharded", b.Part.Shards))
	}
	return b.instantiate(nil, []*sim.Engine{engine}, cfg)
}

// InstantiateSharded builds a live network of b across a new shard
// group seeded with seed, one shard per partition class. The group's
// conservative lookahead is the minimum propagation delay over the
// partition's cut edges; a cut edge with zero propagation makes
// windowed sync unsound, so that returns sim.ErrZeroLookahead (wrapped).
func (b *Blueprint) InstantiateSharded(seed uint64, cfg SwitchConfig) (*Network, error) {
	group, err := sim.NewShardGroup(seed, b.Part.Shards, b.lookahead)
	if err != nil {
		return nil, fmt.Errorf("simnet: partition of %q unusable: %w", b.Graph.Name, err)
	}
	engines := make([]*sim.Engine, b.Part.Shards)
	for s := range engines {
		engines[s] = group.Shard(s)
	}
	return b.instantiate(group, engines, cfg), nil
}

// instantiate creates the equipment. Switches, their ports and blocking
// flags, hosts and links are each cut, in id order, from one slab sized
// by the blueprint, so the equipment costs the build one allocation per
// kind; the slabs never grow, and a component's address is fixed for
// the network's lifetime. The switches on one engine share one free
// list of forwarding contexts.
func (b *Blueprint) instantiate(group *sim.ShardGroup, engines []*sim.Engine, cfg SwitchConfig) *Network {
	g := b.Graph
	n := &Network{
		Graph: b.Graph, Part: b.Part, Group: group, bp: b, engines: engines,
		switches: make([]*Switch, g.NumNodes()),
		hosts:    make([]*Host, g.NumNodes()),
		links:    make([]Link, len(b.ports)),
	}
	switches := make([]Switch, b.nswitches)
	ports := make([]Port, b.nports)
	blocked := make([]bool, b.nports)
	hosts := make([]Host, b.nhosts)
	pools := make([]fwdPool, len(engines))
	for i := range n.switches {
		node := g.Node(topo.NodeID(i))
		eng := engines[b.Part.Of[i]]
		if node.Kind != topo.KindSwitch {
			h := &hosts[0]
			hosts = hosts[1:]
			h.init(eng, node.Name, frame.NewMAC(uint32(i)))
			n.hosts[i] = h
			continue
		}
		fib := emptyFIB
		if b.fibs != nil {
			fib = b.fibs[b.nswitches-len(switches)]
		}
		deg := g.Degree(node.ID)
		s := &switches[0]
		switches = switches[1:]
		s.init(eng, node.Name, ports[:deg:deg], blocked[:deg:deg], fib, &pools[b.Part.Of[i]], cfg)
		ports, blocked = ports[deg:], blocked[deg:]
		n.switches[i] = s
	}
	for i := range n.links {
		e := g.Edge(topo.EdgeID(i))
		pa, pb := n.port(e.A, b.ports[i][0]), n.port(e.B, b.ports[i][1])
		if sa, sb := b.Part.Of[e.A], b.Part.Of[e.B]; sa != sb {
			n.links[i].connectCross(group, b.names[i], pa, pb, sa, sb, e.RateBps, sim.Duration(e.PropNs))
		} else {
			n.links[i].connect(engines[sa], b.names[i], pa, pb, e.RateBps, sim.Duration(e.PropNs))
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

// PortIndex returns which port of node attaches to edge.
func (n *Network) PortIndex(node topo.NodeID, edge topo.EdgeID) int {
	return n.bp.PortIndex(node, edge)
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
func (n *Network) Link(id topo.EdgeID) *Link { return &n.links[id] }

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
