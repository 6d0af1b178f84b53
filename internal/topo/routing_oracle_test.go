package topo

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// cachedRouter is the router as it was when it cached every source's
// Dijkstra tables, built on container/heap. Router now keeps one
// source at a time in reused storage; this is the oracle it must agree
// with, answer for answer, whatever order the sources are visited in.
type cachedRouter struct {
	g      *Graph
	weight EdgeWeight
	dist   [][]float64
	via    [][][]EdgeID
}

type oracleItem struct {
	node NodeID
	dist float64
}

type oracleQueue []*oracleItem

func (q oracleQueue) Len() int           { return len(q) }
func (q oracleQueue) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q oracleQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *oracleQueue) Push(x any)        { *q = append(*q, x.(*oracleItem)) }
func (q *oracleQueue) Pop() any {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

func newCachedRouter(g *Graph, weight EdgeWeight) *cachedRouter {
	return &cachedRouter{g: g, weight: weight,
		dist: make([][]float64, g.NumNodes()), via: make([][][]EdgeID, g.NumNodes())}
}

func (r *cachedRouter) run(src NodeID) {
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
	q := &oracleQueue{}
	heap.Push(q, &oracleItem{node: src})
	for q.Len() > 0 {
		it := heap.Pop(q).(*oracleItem)
		if it.dist > dist[it.node] {
			continue
		}
		for _, eid := range r.g.adj[it.node] {
			e := r.g.Edge(eid)
			m := e.Other(it.node)
			nd := it.dist + r.weight(e)
			switch {
			case nd < dist[m]:
				dist[m] = nd
				via[m] = []EdgeID{eid}
				heap.Push(q, &oracleItem{node: m, dist: nd})
			case nd == dist[m]:
				via[m] = append(via[m], eid)
			}
		}
	}
	r.dist[src], r.via[src] = dist, via
}

// walk follows predecessor edges from dst back to src, letting choose
// pick among each node's equal-cost options, and returns the path.
func (r *cachedRouter) walk(src, dst NodeID, choose func([]EdgeID) EdgeID) (Path, error) {
	r.run(src)
	if math.IsInf(r.dist[src][dst], 1) {
		return Path{}, ErrNoPath{src, dst}
	}
	p := Path{Nodes: []NodeID{dst}, Edges: []EdgeID{}}
	for cur := dst; cur != src; {
		e := choose(r.via[src][cur])
		cur = r.g.Edge(e).Other(cur)
		p.Nodes = append([]NodeID{cur}, p.Nodes...)
		p.Edges = append([]EdgeID{e}, p.Edges...)
	}
	return p, nil
}

func lowest(options []EdgeID) EdgeID {
	best := options[0]
	for _, o := range options[1:] {
		best = min(best, o)
	}
	return best
}

func (r *cachedRouter) ecmp(src, dst NodeID, key uint64) (Path, error) {
	h := key
	return r.walk(src, dst, func(options []EdgeID) EdgeID {
		h = h*0x9e3779b97f4a7c15 + 0x7f4a7c159e3779b9
		return options[int(h%uint64(len(options)))]
	})
}

// randomGraph is a seeded multigraph-free graph: a random spanning
// forest (some nodes may stay isolated) plus extra random edges, with
// propagation delays from a small set so that equal costs are common
// under either weight.
func randomGraph(rng *rand.Rand) *Graph {
	g := NewGraph("random")
	n := 2 + rng.Intn(40)
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("n%d", i), NodeKind(rng.Intn(4)))
	}
	linked := map[[2]NodeID]bool{}
	add := func(a, b NodeID) {
		if a == b || linked[[2]NodeID{a, b}] {
			return
		}
		linked[[2]NodeID{a, b}], linked[[2]NodeID{b, a}] = true, true
		g.AddEdge(a, b, 1e9, int64(100*(1+rng.Intn(3))))
	}
	for i := 1; i < n; i++ {
		if rng.Intn(10) > 0 {
			add(NodeID(i), NodeID(rng.Intn(i)))
		}
	}
	for k := rng.Intn(2 * n); k > 0; k-- {
		add(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
	}
	return g
}

// TestRouterMatchesCachedOracle checks Distance, NextHop, Path and
// ECMPPath against the all-sources oracle on every generator and on 50
// seeded random graphs, under both weights. Every (source, destination)
// pair is asked once, in a random order, so the router changes source
// on almost every query.
func TestRouterMatchesCachedOracle(t *testing.T) {
	graphs := []*Graph{
		Line(5, 2, LinkOT1G, LinkOT100M),
		Ring(7, 1, LinkOT1G, LinkOT100M),
		Ring(8, 0, LinkOT1G, LinkOT100M),
		Star(6, LinkOT1G),
		Tree(3, 3, 2, LinkOT1G, LinkOT100M),
		LeafSpine(4, 6, 2, LinkDC40G, LinkDC10G),
		FatTree(4, LinkDC10G),
		Campus(CampusConfig{Cells: 3, SwitchesPerCell: 7, HostsPerSwitch: 1, Spines: 2}).Graph,
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		graphs = append(graphs, randomGraph(rng))
	}
	for gi, g := range graphs {
		for wi, weight := range []EdgeWeight{HopCount, PropagationCost} {
			r, o := NewRouter(g, weight), newCachedRouter(g, weight)
			n := g.NumNodes()
			for _, k := range rng.Perm(n * n) {
				src, dst := NodeID(k/n), NodeID(k%n)
				where := fmt.Sprintf("graph %d (%s) weight %d: %d->%d", gi, g.Name, wi, src, dst)
				o.run(src)
				if got, want := r.Distance(src, dst), o.dist[src][dst]; got != want {
					t.Fatalf("%s: Distance %v, oracle %v", where, got, want)
				}
				wantPath, wantErr := o.walk(src, dst, lowest)
				gotPath, gotErr := r.Path(src, dst)
				if !reflect.DeepEqual(gotErr, wantErr) || (wantErr == nil && !reflect.DeepEqual(gotPath, wantPath)) {
					t.Fatalf("%s: Path %+v, %v; oracle %+v, %v", where, gotPath, gotErr, wantPath, wantErr)
				}
				hop, err := r.NextHop(src, dst)
				if !reflect.DeepEqual(err, wantErr) || (err == nil && src != dst && hop != wantPath.Edges[0]) {
					t.Fatalf("%s: NextHop %d, %v; oracle path %+v, %v", where, hop, err, wantPath, wantErr)
				}
				for _, key := range []uint64{0, 1, 42, uint64(k)} {
					want, wantErr := o.ecmp(src, dst, key)
					got, err := r.ECMPPath(src, dst, key)
					if !reflect.DeepEqual(err, wantErr) || (wantErr == nil && !reflect.DeepEqual(got, want)) {
						t.Fatalf("%s key %d: ECMPPath %+v, %v; oracle %+v, %v", where, key, got, err, want, wantErr)
					}
				}
			}
		}
	}
}
