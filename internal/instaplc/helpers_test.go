package instaplc

import (
	"time"

	"steelnet/internal/dataplane"
	"steelnet/internal/frame"
	"steelnet/internal/iodevice"
	"steelnet/internal/plc"
	"steelnet/internal/profinet"
	"steelnet/internal/sim"
	"steelnet/internal/simnet"
)

// threeCell is the state of a hand-built cell with three controllers.
type threeCell struct {
	app           *App
	dev           *iodevice.Device
	thirdRejected bool
}

// buildThreeControllerCell wires vplc1+vplc2+vplc3 and a device to a
// 4-port InstaPLC pipeline; vplc3 connects last and should be refused.
func buildThreeControllerCell(e *sim.Engine) *threeCell {
	pipe := dataplane.New(e, "dp", 4, dataplane.DefaultConfig)
	app := New(e, pipe, DefaultConfig)
	mk := func(i uint32, name string) *plc.Controller {
		return plc.NewController(e, name, frame.NewMAC(i), plc.ControllerConfig{})
	}
	v1, v2, v3 := mk(1, "v1"), mk(2, "v2"), mk(3+10, "v3")
	dev := iodevice.New(e, "io", frame.NewMAC(3), nil, nil)
	prop := 500 * sim.Nanosecond
	simnet.Connect(e, "1", v1.Host().Port(), pipe.Port(0), 100e6, prop)
	simnet.Connect(e, "2", v2.Host().Port(), pipe.Port(1), 100e6, prop)
	simnet.Connect(e, "3", v3.Host().Port(), pipe.Port(2), 100e6, prop)
	simnet.Connect(e, "d", dev.Host().Port(), pipe.Port(3), 100e6, prop)

	req := func(arid uint32) profinet.ConnectRequest {
		return profinet.ConnectRequest{ARID: arid, CycleUS: 1600, WatchdogFactor: 3, InputLen: 8, OutputLen: 8}
	}
	out := &threeCell{app: app, dev: dev}
	v3.OnRejected = func(uint32, uint8) { out.thirdRejected = true }
	e.Schedule(0, sim.Func(func() {
		v1.Connect(plc.ConnectSpec{Device: frame.NewMAC(3), Req: req(1)})
	}))
	e.Schedule(sim.Time(100*time.Millisecond), sim.Func(func() {
		v2.Connect(plc.ConnectSpec{Device: frame.NewMAC(3), Req: req(2)})
	}))
	e.Schedule(sim.Time(200*time.Millisecond), sim.Func(func() {
		v3.Connect(plc.ConnectSpec{Device: frame.NewMAC(3), Req: req(3)})
	}))
	return out
}

// buildCell wires the standard Fig. 5 cell and returns its parts for
// tests that need direct access to the app.
func buildCell(e *sim.Engine, cfg ExperimentConfig) (*dataplane.Pipeline, *App, *plc.Controller, *plc.Controller, *iodevice.Device) {
	pipe := dataplane.New(e, "dp", 3, dataplane.DefaultConfig)
	app := New(e, pipe, Config{WatchdogCycles: cfg.InstaWatchdogCycles})
	vplc1 := plc.NewController(e, "vplc1", frame.NewMAC(1), plc.ControllerConfig{Primary: true})
	vplc2 := plc.NewController(e, "vplc2", frame.NewMAC(2), plc.ControllerConfig{})
	dev := iodevice.New(e, "io", frame.NewMAC(3), nil, nil)
	connect(vplc1, 0, cfg, 1)
	connect(vplc2, cfg.SecondaryJoinAt, cfg, 2)
	wire(e, vplc1, vplc2, dev, pipe, cfg.LinkBps)
	return pipe, app, vplc1, vplc2, dev
}
