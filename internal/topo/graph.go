// Package topo provides the topology layer the paper contrasts in §2.3
// and §5: classic OT shapes (line, ring, star, tree) that mirror the
// physical plant layout, and IT data-center shapes (leaf-spine, fat-tree)
// built for bisection bandwidth. Graphs are undirected multigraph-free
// node/edge structures with link capacities, plus shortest-path routing
// with equal-cost multipath enumeration. The ML-aware topology optimizer
// in internal/mltopo builds on these generators.
package topo

import (
	"fmt"
	"slices"
	"sort"
)

// NodeKind classifies a node for placement and routing policy.
type NodeKind int

// Node kinds.
const (
	KindSwitch NodeKind = iota
	KindHost
	KindIODevice
	KindServer // data-center compute (vPLC / ML inference)
)

var kindNames = map[NodeKind]string{
	KindSwitch: "switch", KindHost: "host", KindIODevice: "io", KindServer: "server",
}

// String returns the kind name.
func (k NodeKind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// NodeID identifies a node within a Graph.
type NodeID int

// Node is a vertex with a kind and a human-readable name.
type Node struct {
	ID   NodeID
	Name string
	Kind NodeKind
}

// EdgeID identifies an edge within a Graph.
type EdgeID int

// Edge is an undirected link between two nodes with a capacity in bits
// per second and a propagation delay in nanoseconds.
type Edge struct {
	ID      EdgeID
	A, B    NodeID
	RateBps float64
	PropNs  int64
}

// Other returns the endpoint opposite n; it panics when n is not an
// endpoint.
func (e Edge) Other(n NodeID) NodeID {
	switch n {
	case e.A:
		return e.B
	case e.B:
		return e.A
	}
	panic(fmt.Sprintf("topo: node %d not on edge %d", n, e.ID))
}

// Graph is a mutable undirected graph.
type Graph struct {
	Name  string
	nodes []Node
	edges []Edge
	adj   [][]EdgeID // by NodeID: incident edges, in ascending edge-id order
}

// NewGraph returns an empty graph with the given name.
func NewGraph(name string) *Graph {
	return &Graph{Name: name}
}

// newSizedGraph returns an empty graph with room for the given node and
// edge counts, for a generator that knows them up front.
func newSizedGraph(name string, nodes, edges int) *Graph {
	return &Graph{
		Name:  name,
		nodes: make([]Node, 0, nodes),
		edges: make([]Edge, 0, edges),
		adj:   make([][]EdgeID, 0, nodes),
	}
}

// carveAdjacency gives every node an incidence list with room for
// degree(n) edges, all cut from one slab. Call it after the last AddNode
// and before the first AddEdge. A list that outgrows its room is moved
// by append, so a wrong degree costs an allocation, never correctness.
func (g *Graph) carveAdjacency(degree func(NodeID) int) {
	total := 0
	for n := range g.adj {
		total += degree(NodeID(n))
	}
	slab := make([]EdgeID, total)
	off := 0
	for n := range g.adj {
		d := degree(NodeID(n))
		g.adj[n] = slab[off : off : off+d]
		off += d
	}
}

// AddNode appends a node and returns its id.
func (g *Graph) AddNode(name string, kind NodeKind) NodeID {
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, Name: name, Kind: kind})
	g.adj = append(g.adj, nil)
	return id
}

// AddEdge connects a and b and returns the edge id. Self-loops panic.
func (g *Graph) AddEdge(a, b NodeID, rateBps float64, propNs int64) EdgeID {
	if a == b {
		panic("topo: self-loop")
	}
	g.mustHave(a)
	g.mustHave(b)
	id := EdgeID(len(g.edges))
	g.edges = append(g.edges, Edge{ID: id, A: a, B: b, RateBps: rateBps, PropNs: propNs})
	g.adj[a] = append(g.adj[a], id)
	g.adj[b] = append(g.adj[b], id)
	return id
}

func (g *Graph) mustHave(n NodeID) {
	if int(n) < 0 || int(n) >= len(g.nodes) {
		panic(fmt.Sprintf("topo: unknown node %d", n))
	}
}

// Node returns the node with id n.
func (g *Graph) Node(n NodeID) Node { g.mustHave(n); return g.nodes[n] }

// Edge returns the edge with id e.
func (g *Graph) Edge(e EdgeID) Edge { return g.edges[e] }

// Nodes returns all nodes in id order.
func (g *Graph) Nodes() []Node { return append([]Node(nil), g.nodes...) }

// Edges returns all edges in id order.
func (g *Graph) Edges() []Edge { return append([]Edge(nil), g.edges...) }

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Incident returns the edge ids incident to n in ascending order. The
// slice is the graph's own: callers must not modify it.
func (g *Graph) Incident(n NodeID) []EdgeID {
	g.mustHave(n)
	return slices.Clip(g.adj[n])
}

// Degree returns the number of edges incident to n.
func (g *Graph) Degree(n NodeID) int { return len(g.adj[n]) }

// Neighbors returns the neighbor node ids of n, sorted.
func (g *Graph) Neighbors(n NodeID) []NodeID {
	out := make([]NodeID, 0, len(g.adj[n]))
	for _, eid := range g.adj[n] {
		out = append(out, g.edges[eid].Other(n))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NodesOfKind returns the ids of all nodes with the given kind, in order.
func (g *Graph) NodesOfKind(kind NodeKind) []NodeID {
	var out []NodeID
	for _, n := range g.nodes {
		if n.Kind == kind {
			out = append(out, n.ID)
		}
	}
	return out
}

// Connected reports whether every node is reachable from node 0.
func (g *Graph) Connected() bool {
	if len(g.nodes) == 0 {
		return true
	}
	seen := make([]bool, len(g.nodes))
	stack := []NodeID{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, eid := range g.adj[n] {
			m := g.edges[eid].Other(n)
			if !seen[m] {
				seen[m] = true
				count++
				stack = append(stack, m)
			}
		}
	}
	return count == len(g.nodes)
}
