package topo

import (
	"container/heap"
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

// EdgeWeight assigns a routing cost to an edge. HopCount treats every
// edge as cost 1; PropagationCost uses the edge's propagation delay.
type EdgeWeight func(Edge) float64

// HopCount weighs every edge 1.
func HopCount(Edge) float64 { return 1 }

// PropagationCost weighs an edge by its propagation delay plus one —
// the +1 keeps zero-delay edges from forming zero-cost cycles in path
// enumeration.
func PropagationCost(e Edge) float64 { return float64(e.PropNs) + 1 }

type pqItem struct {
	node NodeID
	dist float64
	idx  int
}

type pq []*pqItem

func (q pq) Len() int           { return len(q) }
func (q pq) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q pq) Swap(i, j int)      { q[i], q[j] = q[j], q[i]; q[i].idx = i; q[j].idx = j }
func (q *pq) Push(x any)        { it := x.(*pqItem); it.idx = len(*q); *q = append(*q, it) }
func (q *pq) Pop() any          { old := *q; n := len(old); it := old[n-1]; *q = old[:n-1]; return it }

// Router computes and caches shortest paths over a fixed graph.
type Router struct {
	g      *Graph
	weight EdgeWeight
	// dist[s] and via[s] are per-source Dijkstra results, lazily built
	// (nil until s is first used as a source).
	dist [][]float64
	via  [][][]EdgeID // all equal-cost predecessor edges
}

// NewRouter builds a router over g with the given weight function.
func NewRouter(g *Graph, weight EdgeWeight) *Router {
	if weight == nil {
		weight = HopCount
	}
	return &Router{
		g: g, weight: weight,
		dist: make([][]float64, g.NumNodes()),
		via:  make([][][]EdgeID, g.NumNodes()),
	}
}

func (r *Router) run(src NodeID) {
	if r.dist[src] != nil {
		return
	}
	n := r.g.NumNodes()
	dist := make([]float64, n)
	via := make([][]EdgeID, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	q := &pq{}
	heap.Push(q, &pqItem{node: src, dist: 0})
	for q.Len() > 0 {
		it := heap.Pop(q).(*pqItem)
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
				via[m] = []EdgeID{eid}
				heap.Push(q, &pqItem{node: m, dist: nd})
			case nd == dist[m]:
				via[m] = append(via[m], eid)
			}
		}
	}
	r.dist[src] = dist
	r.via[src] = via
}

// Distance returns the shortest-path cost from src to dst, or +Inf when
// unreachable.
func (r *Router) Distance(src, dst NodeID) float64 {
	r.run(src)
	return r.dist[src][dst]
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
	if math.IsInf(r.dist[src][dst], 1) {
		return Path{}, ErrNoPath{src, dst}
	}
	var revNodes []NodeID
	var revEdges []EdgeID
	cur := dst
	for cur != src {
		revNodes = append(revNodes, cur)
		options := r.via[src][cur]
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
	if math.IsInf(r.dist[src][dst], 1) {
		return 0, ErrNoPath{src, dst}
	}
	cur := dst
	var last EdgeID
	for cur != src {
		options := r.via[src][cur]
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

// ECMPPath returns the shortest path selected by hashing flowKey over the
// equal-cost predecessor sets — deterministic per flow, diverse across
// flows, like switch ECMP.
func (r *Router) ECMPPath(src, dst NodeID, flowKey uint64) (Path, error) {
	r.run(src)
	if math.IsInf(r.dist[src][dst], 1) {
		return Path{}, ErrNoPath{src, dst}
	}
	var revNodes []NodeID
	var revEdges []EdgeID
	h := flowKey
	cur := dst
	for cur != src {
		revNodes = append(revNodes, cur)
		options := r.via[src][cur]
		h = h*0x9e3779b97f4a7c15 + 0x7f4a7c159e3779b9
		pick := options[int(h%uint64(len(options)))]
		revEdges = append(revEdges, pick)
		cur = r.g.Edge(pick).Other(cur)
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

// PropagationNs sums the propagation delay along p.
func PropagationNs(g *Graph, p Path) int64 {
	var total int64
	for _, eid := range p.Edges {
		total += g.Edge(eid).PropNs
	}
	return total
}
