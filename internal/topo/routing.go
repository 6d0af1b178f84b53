package topo

import (
	"fmt"
	"math"
)

// Path is a route through the graph: the node sequence and the edges
// taken between consecutive nodes (len(Edges) == len(Nodes)-1).
type Path struct {
	Nodes []NodeID
	Edges []EdgeID
}

// Hops returns the number of links traversed.
func (p Path) Hops() int { return len(p.Edges) }

// Valid reports whether the path's nodes and edges are consistent in g.
func (p Path) Valid(g *Graph) bool {
	if len(p.Nodes) == 0 || len(p.Edges) != len(p.Nodes)-1 {
		return false
	}
	for i, eid := range p.Edges {
		e := g.Edge(eid)
		if !(e.A == p.Nodes[i] && e.B == p.Nodes[i+1]) &&
			!(e.B == p.Nodes[i] && e.A == p.Nodes[i+1]) {
			return false
		}
	}
	return true
}

// EdgeWeight assigns a routing cost to an edge.
type EdgeWeight func(Edge) float64

// HopCount weighs every edge 1.
func HopCount(Edge) float64 { return 1 }

type pqItem struct {
	node NodeID
	dist float64
}

// frontier is Dijkstra's queue: a binary min-heap on dist whose sift-up
// and sift-down are container/heap's, step for step, so equal-distance
// nodes pop in the order they always have.
type frontier []pqItem

func (q *frontier) push(it pqItem) {
	h := append(*q, it)
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	*q = h
}

func (q *frontier) pop() pqItem {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].dist < h[j].dist {
			j = j2
		}
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	*q = h[:n]
	return h[n]
}

// Router computes shortest paths over a fixed graph. It holds one
// source's Dijkstra results at a time: a query from another source
// recomputes them in place, reusing their storage. Callers that visit
// sources one after another (FIB installation) therefore pay for one
// source's tables, not for every source's.
type Router struct {
	g      *Graph
	weight EdgeWeight
	// src is the source dist and via describe; -1 before the first query.
	src  NodeID
	dist []float64
	via  [][]EdgeID // all equal-cost predecessor edges
	q    frontier
}

// NewRouter builds a router over g with the given weight function.
func NewRouter(g *Graph, weight EdgeWeight) *Router {
	if weight == nil {
		weight = HopCount
	}
	return &Router{
		g: g, weight: weight, src: -1,
		dist: make([]float64, g.NumNodes()),
		via:  make([][]EdgeID, g.NumNodes()),
	}
}

func (r *Router) run(src NodeID) {
	r.g.mustHave(src)
	if r.src == src {
		return
	}
	r.src = -1 // until the tables below are whole again
	// Only dist needs resetting: a node's via list restarts when the node
	// is first reached, and an unreached node's is never read.
	dist, via := r.dist, r.via
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	r.q = r.q[:0]
	r.q.push(pqItem{node: src, dist: 0})
	for len(r.q) > 0 {
		it := r.q.pop()
		if it.dist > dist[it.node] {
			continue
		}
		for _, eid := range r.g.adj[it.node] {
			e := r.g.Edge(eid)
			w := r.weight(e)
			if w < 0 {
				panic("topo: negative edge weight")
			}
			m := e.Other(it.node)
			nd := it.dist + w
			switch {
			case nd < dist[m]:
				dist[m] = nd
				via[m] = append(via[m][:0], eid)
				r.q.push(pqItem{node: m, dist: nd})
			case nd == dist[m]:
				via[m] = append(via[m], eid)
			}
		}
	}
	r.src = src
}

// ErrNoPath is returned when dst is unreachable from src.
type ErrNoPath struct{ Src, Dst NodeID }

func (e ErrNoPath) Error() string {
	return fmt.Sprintf("topo: no path from %d to %d", e.Src, e.Dst)
}

// Path returns one shortest path from src to dst. Among equal-cost
// options it picks the lowest edge id at each step, so the choice is
// deterministic.
func (r *Router) Path(src, dst NodeID) (Path, error) {
	r.run(src)
	if math.IsInf(r.dist[dst], 1) {
		return Path{}, ErrNoPath{src, dst}
	}
	var revNodes []NodeID
	var revEdges []EdgeID
	cur := dst
	for cur != src {
		revNodes = append(revNodes, cur)
		options := r.via[cur]
		best := options[0]
		for _, o := range options[1:] {
			if o < best {
				best = o
			}
		}
		revEdges = append(revEdges, best)
		cur = r.g.Edge(best).Other(cur)
	}
	revNodes = append(revNodes, src)
	p := Path{
		Nodes: make([]NodeID, len(revNodes)),
		Edges: make([]EdgeID, len(revEdges)),
	}
	for i := range revNodes {
		p.Nodes[i] = revNodes[len(revNodes)-1-i]
	}
	for i := range revEdges {
		p.Edges[i] = revEdges[len(revEdges)-1-i]
	}
	return p, nil
}

// NextHop returns the first edge on the shortest path from src to dst,
// making the same deterministic lowest-edge-id choice at every step as
// Path, without materializing the node and edge slices. It is the
// allocation-free form FIB installation wants: only the egress edge at
// src matters there.
func (r *Router) NextHop(src, dst NodeID) (EdgeID, error) {
	r.run(src)
	if math.IsInf(r.dist[dst], 1) {
		return 0, ErrNoPath{src, dst}
	}
	cur := dst
	var last EdgeID
	for cur != src {
		options := r.via[cur]
		best := options[0]
		for _, o := range options[1:] {
			if o < best {
				best = o
			}
		}
		last = best
		cur = r.g.Edge(best).Other(cur)
	}
	return last, nil
}
