package simnet

import (
	"testing"

	"steelnet/internal/checkpoint"
	"steelnet/internal/frame"
	"steelnet/internal/topo"
)

// campusEntries lists, per switch node, the static entries a campus
// build installs, in install order: every host of a cell switch's
// subtree, found by walking each host's ancestor chain, and every host
// for a spine. Ports point at the next node toward the host.
func campusEntries(ct *topo.CampusTopo, n *Network) map[topo.NodeID][][2]int {
	g := ct.Graph
	portToward := func(at, next topo.NodeID) int {
		for _, eid := range g.Incident(at) {
			if g.Edge(eid).Other(at) == next {
				return n.PortIndex(at, eid)
			}
		}
		panic("no edge")
	}
	entries := make(map[topo.NodeID][][2]int)
	for c, sw := range ct.CellSwitches {
		for j, host := range ct.CellHosts[c] {
			i := j / ct.Cfg.HostsPerSwitch
			entries[sw[i]] = append(entries[sw[i]], [2]int{int(host), portToward(sw[i], host)})
			for i != 0 {
				parent := (i - 1) / ct.Cfg.Fanout
				entries[sw[parent]] = append(entries[sw[parent]], [2]int{int(host), portToward(sw[parent], sw[i])})
				i = parent
			}
		}
		for _, sp := range ct.Spines {
			for _, host := range ct.CellHosts[c] {
				entries[sp] = append(entries[sp], [2]int{int(host), portToward(sp, sw[0])})
			}
		}
	}
	return entries
}

func switchDigest(sw *Switch) uint64 {
	d := checkpoint.NewDigest()
	sw.FoldState(d)
	return d.Sum()
}

// TestCampusFIBSizedOnceMatchesGrown installs a campus's static routes
// twice: into FIBs sized up front by ReserveFIB for exactly their
// entries, and into FIBs that grow by doubling from the empty table. On
// every switch the sized table must not move while its entries go in,
// must end the size the grown one does, answer every lookup the same
// way — each installed host, every other host (unknown) — and fold the
// same digest. The two then learn the same extra stations and must still
// agree.
func TestCampusFIBSizedOnceMatchesGrown(t *testing.T) {
	ct := topo.Campus(topo.CampusConfig{Cells: 3, SwitchesPerCell: 40, HostsPerSwitch: 2, Spines: 2})
	build := func() *Network {
		n, err := NewSharded(1, ct.Graph, ct.Partition(), DefaultSwitchConfig)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	sized, grown := build(), build()
	entries := campusEntries(ct, grown)
	hosts := ct.Graph.NodesOfKind(topo.KindHost)
	for id, sw := range grown.switches {
		if sw == nil {
			continue
		}
		s, list := sized.switches[id], entries[topo.NodeID(id)]
		s.ReserveFIB(len(list))
		slots := s.fib.slots
		for _, e := range list {
			mac := frame.NewMAC(uint32(e[0]))
			s.AddStatic(mac, e[1])
			sw.AddStatic(mac, e[1])
		}
		if len(list) > 0 && &s.fib.slots[0] != &slots[0] {
			t.Fatalf("switch %s: the sized FIB was reallocated while its %d entries went in", s.Name(), len(list))
		}
		check := func(when string) {
			if len(s.fib.slots) != len(sw.fib.slots) {
				t.Fatalf("switch %s %s: sized FIB has %d slots, grown %d", s.Name(), when, len(s.fib.slots), len(sw.fib.slots))
			}
			for _, h := range hosts {
				mac := frame.NewMAC(uint32(h))
				if a, b := s.LookupPort(mac), sw.LookupPort(mac); a != b {
					t.Fatalf("switch %s %s: host %d behind port %d, grown FIB says %d", s.Name(), when, h, a, b)
				}
			}
			if a, b := switchDigest(s), switchDigest(sw); a != b {
				t.Fatalf("switch %s %s: digest %#x, grown FIB %#x", s.Name(), when, a, b)
			}
		}
		check("after install")
		for st := uint32(0); st < 40; st++ {
			mac := frame.NewMAC(1_000_000 + st)
			s.fib.put(mac, fibEntry{port: int32(st % 3)})
			sw.fib.put(mac, fibEntry{port: int32(st % 3)})
		}
		check("after learning")
	}
}

// TestFreshSwitchFIB: a switch that has installed nothing answers
// lookups, flushes, reserves nothing for zero entries, and learns.
func TestFreshSwitchFIB(t *testing.T) {
	sw := &Switch{fib: emptyFIB}
	if got := sw.LookupPort(frame.NewMAC(7)); got != -1 {
		t.Fatalf("empty FIB resolves to port %d", got)
	}
	sw.FlushDynamic()
	sw.ReserveFIB(0)
	if len(sw.fib.slots) != 1 {
		t.Fatalf("reserving 0 entries sized the table to %d slots", len(sw.fib.slots))
	}
	sw.AddStatic(frame.NewMAC(7), 2)
	if got := sw.LookupPort(frame.NewMAC(7)); got != 2 || len(sw.fib.slots) != minFIBSlots {
		t.Fatalf("first entry: port %d in %d slots, want 2 in %d", got, len(sw.fib.slots), minFIBSlots)
	}
	if emptyFIB.slots[0].key != 0 || emptyFIB.n != 0 {
		t.Fatal("the shared empty table was written")
	}
}
