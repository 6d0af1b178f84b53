// Package core is the public face of steelnet: it assembles the
// paper's converged IT/OT factory — production cells of I/O devices,
// virtual PLCs running on modeled host stacks in an on-prem data
// center, and a programmable network between them — and exposes one
// entry point per experiment the paper reports (Figures 1, 4, 5 and 6,
// plus the §2 requirement checks). Examples and CLIs build on this
// package; the substrates live in their own packages underneath.
package core

import (
	"fmt"
	"time"

	"steelnet/internal/dataplane"
	"steelnet/internal/frame"
	"steelnet/internal/host"
	"steelnet/internal/instaplc"
	"steelnet/internal/iodevice"
	"steelnet/internal/plc"
	"steelnet/internal/profinet"
	"steelnet/internal/sim"
	"steelnet/internal/simnet"
)

// CellConfig describes one production cell: a device and its
// controller(s) exchanging cyclic IO.
type CellConfig struct {
	Name string
	// Cycle is the IO cycle time.
	Cycle time.Duration
	// WatchdogFactor is the device's safety watchdog in cycles.
	WatchdogFactor int
	// InputLen/OutputLen are the IO payload sizes (§2.3: 20-250 B).
	InputLen, OutputLen int
	// Standby adds a secondary vPLC for high availability.
	Standby bool
	// Process is the cell's physical model (nil: echo).
	Process iodevice.Process
	// Logic is the controller's IL program (nil: none).
	Logic *plc.ILProgram
}

// DefaultCell is a motion-control-ish cell: 1.6 ms cycle, 3-cycle
// watchdog, small payloads.
func DefaultCell(name string) CellConfig {
	return CellConfig{
		Name:           name,
		Cycle:          1600 * time.Microsecond,
		WatchdogFactor: 3,
		InputLen:       20,
		OutputLen:      20,
	}
}

// Cell is one instantiated production cell.
type Cell struct {
	Config  CellConfig
	Device  *iodevice.Device
	Primary *plc.Controller
	Standby *plc.Controller
	ARID    uint32
}

// FactoryConfig parameterizes a factory build.
type FactoryConfig struct {
	Seed uint64
	// Cells describes the production cells.
	Cells []CellConfig
	// HostProfile is the vPLC host stack model (zero value: PreemptRT).
	HostProfile host.Profile
	// UseInstaPLC routes every cell through an InstaPLC programmable
	// switch; otherwise a plain learning switch fabric is used.
	UseInstaPLC bool
	// LinkBps is the cell link speed (default 100 Mb/s industrial).
	LinkBps float64
	// InstaWatchdogCycles is InstaPLC's data-plane failover budget.
	InstaWatchdogCycles int
}

// Factory is the assembled plant.
type Factory struct {
	Engine *sim.Engine
	Cells  []*Cell
	// App is the InstaPLC control app (nil without UseInstaPLC).
	App *instaplc.App

	pipeline *dataplane.Pipeline
	fabric   *simnet.Switch
	// pool is the plant's one frame free list: every station transmits
	// from it and returns the frames it consumes to it.
	pool frame.Pool
}

// NewFactory wires the factory. Each cell gets a primary vPLC (and a
// standby when configured) plus its device; all attach to one fabric
// element — an InstaPLC pipeline or a plain switch.
func NewFactory(cfg FactoryConfig) *Factory {
	if len(cfg.Cells) == 0 {
		panic("core: factory needs at least one cell")
	}
	if cfg.LinkBps <= 0 {
		cfg.LinkBps = 100e6
	}
	if cfg.HostProfile.Name == "" {
		cfg.HostProfile = host.PreemptRT
	}
	if cfg.InstaWatchdogCycles < 1 {
		cfg.InstaWatchdogCycles = 2
	}
	e := sim.NewEngine(cfg.Seed)
	f := &Factory{Engine: e}

	// Count ports: per cell, device + primary + optional standby.
	ports := 0
	for _, c := range cfg.Cells {
		ports += 2
		if c.Standby {
			ports++
		}
	}
	nextPort := 0
	attach := func(h *simnet.Host) {
		prop := 500 * sim.Nanosecond
		if cfg.UseInstaPLC {
			simnet.Connect(e, h.Name(), h.Port(), f.pipeline.Port(nextPort), cfg.LinkBps, prop)
		} else {
			simnet.Connect(e, h.Name(), h.Port(), f.fabric.Port(nextPort), cfg.LinkBps, prop)
		}
		nextPort++
	}
	if cfg.UseInstaPLC {
		f.pipeline = dataplane.New(e, "fabric", ports, dataplane.DefaultConfig)
		f.pipeline.UsePool(&f.pool)
		f.App = instaplc.New(e, f.pipeline, instaplc.Config{WatchdogCycles: cfg.InstaWatchdogCycles})
	} else {
		f.fabric = simnet.NewSwitch(e, "fabric", ports, simnet.DefaultSwitchConfig)
	}

	station := uint32(1)
	for i, cc := range cfg.Cells {
		if cc.Cycle <= 0 {
			panic(fmt.Sprintf("core: cell %q has no cycle time", cc.Name))
		}
		cell := &Cell{Config: cc, ARID: uint32(i + 1)}
		devMAC := frame.NewMAC(station)
		station++
		cell.Device = iodevice.New(e, cc.Name+"/io", devMAC, cc.Process, nil)
		cell.Device.UsePool(&f.pool)
		attach(cell.Device.Host())

		priMAC := frame.NewMAC(station)
		station++
		stk := host.NewStack(cfg.HostProfile, e.RNG("vplc/"+cc.Name+"/pri"))
		cell.Primary = plc.NewController(e, cc.Name+"/vplc1", priMAC, plc.ControllerConfig{
			Logic: cc.Logic, Stack: stk, Primary: true,
		})
		cell.Primary.UsePool(&f.pool)
		attach(cell.Primary.Host())

		if cc.Standby {
			secMAC := frame.NewMAC(station)
			station++
			stk2 := host.NewStack(cfg.HostProfile, e.RNG("vplc/"+cc.Name+"/sec"))
			cell.Standby = plc.NewController(e, cc.Name+"/vplc2", secMAC, plc.ControllerConfig{
				Logic: cc.Logic, Stack: stk2,
			})
			cell.Standby.UsePool(&f.pool)
			attach(cell.Standby.Host())
		}
		f.Cells = append(f.Cells, cell)
	}
	return f
}

// Start connects every cell's controllers to their devices; standbys
// join standbyDelay after the primaries so roles are deterministic.
func (f *Factory) Start(standbyDelay time.Duration) {
	for _, cell := range f.Cells {
		spec := plc.ConnectSpec{
			Device: cell.Device.Host().MAC(),
			Req: profinet.ConnectRequest{
				ARID:           cell.ARID,
				CycleUS:        uint32(cell.Config.Cycle / time.Microsecond),
				WatchdogFactor: uint16(cell.Config.WatchdogFactor),
				InputLen:       uint16(cell.Config.InputLen),
				OutputLen:      uint16(cell.Config.OutputLen),
			},
		}
		cell.Primary.ConnectAt(f.Engine.Now(), spec)
		if cell.Standby != nil {
			spec.Req.ARID += 1000
			cell.Standby.ConnectAt(f.Engine.Now().Add(standbyDelay), spec)
		}
	}
}

// RunFor advances the factory by d.
func (f *Factory) RunFor(d time.Duration) { f.Engine.RunFor(d) }

// HealthReport summarizes cell health.
type HealthReport struct {
	Cell           string
	DeviceState    iodevice.State
	FailsafeEvents uint64
	PrimaryTx      uint64
	DeviceTx       uint64
}

// Health returns a report per cell.
func (f *Factory) Health() []HealthReport {
	out := make([]HealthReport, 0, len(f.Cells))
	for _, c := range f.Cells {
		out = append(out, HealthReport{
			Cell:           c.Config.Name,
			DeviceState:    c.Device.State(),
			FailsafeEvents: c.Device.FailsafeEvents,
			PrimaryTx:      c.Primary.TxCyclic,
			DeviceTx:       c.Device.TxCyclic,
		})
	}
	return out
}
