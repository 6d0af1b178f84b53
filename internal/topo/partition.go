package topo

import "fmt"

// Partition assigns every node of a graph to one of Shards spatial
// shards. The assignment is part of the scenario: simulation outputs
// depend on it (shard layouts are folded into checkpoint digests), so
// partitions must be derived deterministically from the topology —
// never from runtime knobs like worker counts.
type Partition struct {
	Shards int
	Of     []int // node ID -> shard index
}

// Validate checks the partition covers g exactly: one assignment per
// node, every shard index in range, and no empty shard.
func (p Partition) Validate(g *Graph) error {
	if p.Shards < 1 {
		return fmt.Errorf("topo: partition has %d shards", p.Shards)
	}
	if len(p.Of) != g.NumNodes() {
		return fmt.Errorf("topo: partition covers %d nodes, graph has %d", len(p.Of), g.NumNodes())
	}
	seen := make([]bool, p.Shards)
	for n, s := range p.Of {
		if s < 0 || s >= p.Shards {
			return fmt.Errorf("topo: node %d assigned to shard %d outside [0,%d)", n, s, p.Shards)
		}
		seen[s] = true
	}
	for s, ok := range seen {
		if !ok {
			return fmt.Errorf("topo: shard %d is empty", s)
		}
	}
	return nil
}

// CutEdges returns the IDs of edges whose endpoints live on different
// shards — the links that become cross-shard message channels.
func (p Partition) CutEdges(g *Graph) []EdgeID {
	var cut []EdgeID
	for _, e := range g.edges {
		if p.Of[e.A] != p.Of[e.B] {
			cut = append(cut, e.ID)
		}
	}
	return cut
}

// MinCutPropNs returns the minimum propagation delay across all cut
// edges — the conservative lookahead bound for this partition — and
// whether the cut is non-empty. A partition with no cut edges imposes
// no lookahead bound at all (shards never interact).
func (p Partition) MinCutPropNs(g *Graph) (int64, bool) {
	min, any := int64(0), false
	for _, e := range g.edges {
		if p.Of[e.A] == p.Of[e.B] {
			continue
		}
		if !any || e.PropNs < min {
			min, any = e.PropNs, true
		}
	}
	return min, any
}

// PartitionGreedy builds a k-shard partition by growing breadth-first
// regions of roughly equal node count from successive unassigned seeds.
// It is deterministic (seeds and frontiers follow node-ID order) and
// keeps dense neighborhoods together, which for cellular topologies
// approximates the min-cut cell grouping. Structured topologies should
// prefer their native partition (for example CampusTopo.Partition);
// this is the generic fallback for arbitrary graphs.
func PartitionGreedy(g *Graph, k int) Partition {
	n := g.NumNodes()
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	p := Partition{Shards: k, Of: make([]int, n)}
	for i := range p.Of {
		p.Of[i] = -1
	}
	target := (n + k - 1) / k
	assigned := 0
	seed := 0
	for shard := 0; shard < k; shard++ {
		// Remaining shards must each get at least one node.
		quota := target
		if rest := n - assigned - (k - shard - 1); quota > rest {
			quota = rest
		}
		var queue []NodeID
		take := func(id NodeID) bool {
			if p.Of[id] != -1 {
				return false
			}
			p.Of[id] = shard
			assigned++
			quota--
			queue = append(queue, id)
			return true
		}
		for quota > 0 {
			if len(queue) == 0 {
				// Region exhausted (or first seed): jump to the next
				// unassigned node so disconnected graphs still fill.
				for seed < n && p.Of[seed] != -1 {
					seed++
				}
				if seed >= n {
					break
				}
				take(NodeID(seed))
				continue
			}
			id := queue[0]
			queue = queue[1:]
			for _, nb := range g.Neighbors(id) {
				if quota <= 0 {
					break
				}
				take(nb)
			}
		}
	}
	// Backstop: anything still unassigned joins the last shard.
	for i := range p.Of {
		if p.Of[i] == -1 {
			p.Of[i] = p.Shards - 1
		}
	}
	return p
}
