package simnet

import (
	"testing"
	"unsafe"

	"steelnet/internal/sim"
	"steelnet/internal/topo"
)

// TestBuildCutsPortsFromOneSlab: after build, every switch's ports are
// its run of one network-wide array, in node-id order and capped so no
// switch can grow into its neighbor's, the hosts are one more array in
// node-id order, and each link end is the very port Switch.Port or
// Host.Port returns — the pointers links, engine callbacks and traced
// closures hold stay valid for the network's lifetime.
func TestBuildCutsPortsFromOneSlab(t *testing.T) {
	rng := sim.NewRNG(5)
	for trial := 0; trial < 4; trial++ {
		g := randomPlant(rng)
		n := Build(sim.NewEngine(1), g, DefaultSwitchConfig)
		var next uintptr // where the next switch's ports must start
		for id, sw := range n.switches {
			if sw == nil {
				continue
			}
			if len(sw.ports) != g.Degree(topo.NodeID(id)) || cap(sw.ports) != len(sw.ports) {
				t.Fatalf("trial %d: %s has %d ports (cap %d), degree %d", trial, sw.Name(), len(sw.ports), cap(sw.ports), g.Degree(topo.NodeID(id)))
			}
			start := uintptr(unsafe.Pointer(sw.Port(0)))
			if next != 0 && start != next {
				t.Fatalf("trial %d: %s's ports start at %#x, want %#x right after the previous switch's", trial, sw.Name(), start, next)
			}
			next = start + uintptr(len(sw.ports))*unsafe.Sizeof(Port{})
			for i := range sw.ports {
				if p := sw.Port(i); p.Owner != Node(sw) || p.Index != i {
					t.Fatalf("trial %d: %s port %d is owned by %s/%d", trial, sw.Name(), i, p.Owner.Name(), p.Index)
				}
			}
		}
		next = 0 // where the next host must start
		for _, h := range n.hosts {
			if h == nil {
				continue
			}
			at := uintptr(unsafe.Pointer(h))
			if next != 0 && at != next {
				t.Fatalf("trial %d: host %s at %#x, want %#x right after the previous host", trial, h.Name(), at, next)
			}
			next = at + unsafe.Sizeof(Host{})
		}
		portOf := func(node topo.NodeID, edge topo.EdgeID) *Port {
			if sw := n.switches[node]; sw != nil {
				return sw.Port(n.PortIndex(node, edge))
			}
			return n.Host(node).Port()
		}
		for id := range g.NumEdges() {
			e, l := g.Edge(topo.EdgeID(id)), n.Link(topo.EdgeID(id))
			if a, b := portOf(e.A, e.ID), portOf(e.B, e.ID); l.ports[0] != a || l.ports[1] != b || a.Link() != l || b.Link() != l {
				t.Fatalf("trial %d: link %s ends %p/%p, node ports %p/%p", trial, l.Name, l.ports[0], l.ports[1], a, b)
			}
		}
	}
}

// TestSetQueueDepthAllocatesNothing: resizing the egress queues sets a
// bound in each port's inline queue; no queue is built and thrown away.
func TestSetQueueDepthAllocatesNothing(t *testing.T) {
	sw := NewSwitch(sim.NewEngine(1), "sw", 16, DefaultSwitchConfig)
	n := Build(sim.NewEngine(1), randomPlant(sim.NewRNG(1)), DefaultSwitchConfig)
	depth := 0
	if allocs := testing.AllocsPerRun(100, func() {
		depth++
		sw.SetQueueDepth(depth)
		n.SetSwitchQueueDepth(depth)
	}); allocs != 0 {
		t.Fatalf("SetQueueDepth allocates %.1f per call, want 0", allocs)
	}
	for i := range sw.NumPorts() {
		if got := sw.Port(i).queue.Limit(); got != depth {
			t.Fatalf("port %d limit %d, want %d", i, got, depth)
		}
	}
}
