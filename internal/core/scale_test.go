package core

import (
	"fmt"
	"testing"
	"time"

	"steelnet/internal/iodevice"
	"steelnet/internal/sim"
)

// TestSixteenCellFactoryWithInstaPLC is the scale check §2.1 says
// existing evaluations omit ("how performance changes when multiple
// robot applications, vPLCs, or other sources of network traffic are
// running simultaneously"): 16 HA cells on one InstaPLC fabric, three
// primaries killed at different times, everything else unaffected.
func TestSixteenCellFactoryWithInstaPLC(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	cells := make([]CellConfig, 16)
	for i := range cells {
		c := DefaultCell(fmt.Sprintf("cell%02d", i))
		c.Standby = true
		cells[i] = c
	}
	f := NewFactory(FactoryConfig{Seed: 11, Cells: cells, UseInstaPLC: true})
	f.Start(100 * time.Millisecond)
	f.RunFor(500 * time.Millisecond)

	// Kill three primaries at staggered times.
	for i, victim := range []int{2, 7, 13} {
		v := victim
		f.Engine.After(time.Duration(i)*50*time.Millisecond, sim.Func(func() { f.Cells[v].Primary.Fail() }))
	}
	f.RunFor(time.Second)

	if f.App.Switchovers != 3 {
		t.Fatalf("switchovers = %d, want 3", f.App.Switchovers)
	}
	for _, h := range f.Health() {
		if h.DeviceState != iodevice.StateOperate {
			t.Fatalf("cell %s state = %v", h.Cell, h.DeviceState)
		}
		if h.FailsafeEvents != 0 {
			t.Fatalf("cell %s failsafes = %d", h.Cell, h.FailsafeEvents)
		}
	}
	// Every device kept exchanging cyclic data throughout.
	for _, c := range f.Cells {
		if c.Device.RxCyclic < 800 {
			t.Fatalf("cell %s device rx = %d", c.Config.Name, c.Device.RxCyclic)
		}
	}
}

// TestFactoryFaultContainmentAtScale: without redundancy, killing one
// primary of a 16-cell plain-switch factory must leave 15 cells
// untouched — the fault-containment property §2.2 credits classical
// distributed OT with, preserved on the converged fabric.
func TestFactoryFaultContainmentAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	cells := make([]CellConfig, 16)
	for i := range cells {
		cells[i] = DefaultCell(fmt.Sprintf("cell%02d", i))
	}
	f := NewFactory(FactoryConfig{Seed: 12, Cells: cells})
	f.Start(0)
	f.RunFor(300 * time.Millisecond)
	f.Cells[5].Primary.Fail()
	f.RunFor(300 * time.Millisecond)
	for i, h := range f.Health() {
		if i == 5 {
			if h.DeviceState != iodevice.StateFailsafe {
				t.Fatalf("victim cell state = %v", h.DeviceState)
			}
			continue
		}
		if h.DeviceState != iodevice.StateOperate || h.FailsafeEvents != 0 {
			t.Fatalf("bystander cell %s hurt: %+v", h.Cell, h)
		}
	}
}
