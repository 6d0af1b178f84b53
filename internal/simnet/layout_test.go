package simnet_test

import (
	"testing"
	"unsafe"

	"steelnet/internal/core"
	"steelnet/internal/sim"
	"steelnet/internal/simnet"
	"steelnet/internal/topo"
)

// TestPortLayout holds a port to what every frame touches: a campus
// carries one Port per link end and one Host per host, so a new field
// in either is a reviewed decision, not a drift. State that only a
// shaper, fault injection or a drop writes goes in the port's cold
// block, which a campus run without faults never allocates.
func TestPortLayout(t *testing.T) {
	if got := unsafe.Sizeof(simnet.Port{}); got > 296 {
		t.Errorf("Port is %d B, at most 296", got)
	}
	if got := unsafe.Sizeof(simnet.Host{}); got > 400 {
		t.Errorf("Host is %d B, at most 400", got)
	}
	h, err := core.NewCampusHarness(core.CampusConfig{
		Topo:    topo.CampusConfig{Cells: 4, SwitchesPerCell: 6, HostsPerSwitch: 2, Spines: 2},
		Horizon: 5 * sim.Millisecond,
		INT:     true,
		Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.Run()
	if res := h.Result(); res.Accounting.Delivered == 0 {
		t.Fatal("the campus delivered nothing")
	}
	if n := simnet.ColdPorts(h.Network()); n != 0 {
		t.Fatalf("%d of %d ports allocated a cold block in a fault-free campus run", n, len(h.Network().Ports()))
	}
}
