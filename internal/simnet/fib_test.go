package simnet

import (
	"bytes"
	"encoding/binary"
	"maps"
	"slices"
	"testing"

	"steelnet/internal/checkpoint"
	"steelnet/internal/frame"
	"steelnet/internal/sim"
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
	if emptyFIB.slots[0] != 0 || emptyFIB.n != 0 {
		t.Fatal("the shared empty table was written")
	}
}

// TestSwitchPortBound: a FIB slot holds a port in 14 bits, so a switch
// has at most MaxSwitchPorts ports. At the bound the last port is
// installed, looked up and folded like any other; one port more, or a
// static entry outside the slot's range, panics.
func TestSwitchPortBound(t *testing.T) {
	e := sim.NewEngine(1)
	sw := NewSwitch(e, "max", MaxSwitchPorts, DefaultSwitchConfig)
	top, mac := sw.NumPorts()-1, frame.Broadcast
	sw.AddStatic(mac, top)
	if got := sw.LookupPort(mac); got != top {
		t.Fatalf("last port %d resolves to %d", top, got)
	}
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	mustPanic("a switch with MaxSwitchPorts+1 ports", func() { NewSwitch(e, "over", MaxSwitchPorts+1, DefaultSwitchConfig) })
	mustPanic("a static entry on port MaxSwitchPorts+1", func() { sw.AddStatic(mac, MaxSwitchPorts+1) })
	mustPanic("a static entry on port -1", func() { sw.AddStatic(mac, -1) })
}

// fibMAC maps a fuzz byte to a MAC: the low two bits pick the bottom of
// the 48-bit range, its top (broadcast included), a station address or
// a spread pattern; the other six pick the address within it.
func fibMAC(b byte) frame.MAC {
	v := b >> 2
	switch b & 3 {
	case 0:
		return frame.MAC{0, 0, 0, 0, 0, v}
	case 1:
		return frame.MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff - v}
	case 2:
		return frame.NewMAC(uint32(v))
	}
	return frame.MAC{v, v * 37, v * 11, 0xa5, v * 5, v}
}

// fibOp encodes one FuzzFIB operation: code%5 picks learn, static, get,
// reserve (mac is then the entry count) or FlushDynamic.
func fibOp(code, mac byte, port uint16) []byte {
	return []byte{code, mac, byte(port >> 8), byte(port)}
}

// FuzzFIB runs a switch's FIB and a map beside each other through a
// sequence of learned and static installs, lookups, reservations and
// flushes. Every lookup and the entry count must agree after each
// operation, the table must stay at most half full, and at the end the
// FIB must fold the bytes a sorted walk of the map folds.
func FuzzFIB(f *testing.F) {
	edges := slices.Concat(
		fibOp(0, 0, 0),              // learn 00:00:00:00:00:00 on port 0
		fibOp(1, 1, MaxSwitchPorts), // ff:ff:ff:ff:ff:ff static on the top port
		fibOp(2, 0, 0), fibOp(2, 1, 0),
		fibOp(0, 1, 5), // a learned entry replaces a static one
		fibOp(4, 0, 0), // and is flushed
		fibOp(2, 1, 0), fibOp(2, 0, 0),
	)
	f.Add(edges)
	var grow []byte
	for i := range 40 {
		grow = append(grow, fibOp(byte(i%2), byte(i*4+2), uint16(i*409))...)
	}
	grow = slices.Concat(fibOp(3, 100, 0), grow, fibOp(4, 0, 0), fibOp(3, 200, 0), grow[:40])
	f.Add(grow)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, ops []byte) {
		sw := &Switch{fib: emptyFIB}
		oracle := make(map[frame.MAC]fibEntry)
		for step := 0; len(ops) >= 4; ops, step = ops[4:], step+1 {
			mac := fibMAC(ops[1])
			port := int32(binary.BigEndian.Uint16(ops[2:]) & fibPortMask)
			switch ops[0] % 5 {
			case 0:
				sw.fib.put(mac, fibEntry{port: port})
				oracle[mac] = fibEntry{port: port}
			case 1:
				sw.AddStatic(mac, int(port))
				oracle[mac] = fibEntry{port: port, static: true}
			case 2:
				got, ok := sw.fib.get(mac)
				want, wok := oracle[mac]
				if got != want || ok != wok {
					t.Fatalf("step %d: get(%v) = %+v %t, want %+v %t", step, mac, got, ok, want, wok)
				}
			case 3:
				sw.ReserveFIB(int(ops[1]))
			case 4:
				sw.FlushDynamic()
				maps.DeleteFunc(oracle, func(_ frame.MAC, e fibEntry) bool { return !e.static })
			}
			if sw.fib.n != len(oracle) || 2*sw.fib.n > len(sw.fib.slots) {
				t.Fatalf("step %d: %d entries in %d slots, map has %d", step, sw.fib.n, len(sw.fib.slots), len(oracle))
			}
		}
		for mac, want := range oracle {
			if got, ok := sw.fib.get(mac); !ok || got != want {
				t.Fatalf("get(%v) = %+v %t, want %+v", mac, got, ok, want)
			}
		}
		got, want := checkpoint.NewDigest(), checkpoint.NewDigest()
		sw.fib.fold(got, nil)
		macs := slices.SortedFunc(maps.Keys(oracle), func(a, b frame.MAC) int { return bytes.Compare(a[:], b[:]) })
		want.Int(len(macs))
		for _, m := range macs {
			want.Bytes(m[:])
			want.Int(int(oracle[m].port))
			want.Bool(oracle[m].static)
		}
		if got.Sum() != want.Sum() {
			t.Fatalf("FIB folds %#x, the sorted map %#x", got.Sum(), want.Sum())
		}
		if emptyFIB.slots[0] != 0 || emptyFIB.n != 0 {
			t.Fatal("the shared empty table was written")
		}
	})
}
