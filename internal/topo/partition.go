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
