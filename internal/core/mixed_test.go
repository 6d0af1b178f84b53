package core

import (
	"testing"
	"time"

	"steelnet/internal/frame"
	"steelnet/internal/iodevice"
	"steelnet/internal/plc"
	"steelnet/internal/profinet"
	"steelnet/internal/sim"
	"steelnet/internal/simnet"
)

// mixedRig builds the §5 coexistence scenario: a control loop (vPLC on
// sw0, device on sw1) and an ML frame stream (client on sw0, sink on
// sw1) share one 100 Mb/s trunk. mlPrio selects the ML traffic class.
func mixedRig(t *testing.T, mlPrio frame.PCP, burst int) (*sim.Engine, *iodevice.Device) {
	t.Helper()
	e := sim.NewEngine(1)
	sw0 := simnet.NewSwitch(e, "sw0", 4, simnet.DefaultSwitchConfig)
	sw1 := simnet.NewSwitch(e, "sw1", 4, simnet.DefaultSwitchConfig)
	simnet.Connect(e, "trunk", sw0.Port(3), sw1.Port(3), 100e6, 500*sim.Nanosecond)

	ctrl := plc.NewController(e, "vplc", frame.NewMAC(1), plc.ControllerConfig{})
	dev := iodevice.New(e, "io", frame.NewMAC(2), nil, nil)
	mlSrc := simnet.NewHost(e, "cam", frame.NewMAC(3))
	mlSink := simnet.NewHost(e, "srv", frame.NewMAC(4))
	simnet.Connect(e, "c", ctrl.Host().Port(), sw0.Port(0), 1e9, 0)
	simnet.Connect(e, "m", mlSrc.Port(), sw0.Port(1), 1e9, 0)
	simnet.Connect(e, "d", dev.Host().Port(), sw1.Port(0), 100e6, 0)
	simnet.Connect(e, "s", mlSink.Port(), sw1.Port(1), 1e9, 0)
	for _, sw := range []*simnet.Switch{sw0, sw1} {
		sw.SetQueueDepth(4096)
	}
	sw0.AddStatic(dev.Host().MAC(), 3)
	sw0.AddStatic(mlSink.MAC(), 3)
	sw0.AddStatic(ctrl.Host().MAC(), 0)
	sw1.AddStatic(dev.Host().MAC(), 0)
	sw1.AddStatic(mlSink.MAC(), 1)
	sw1.AddStatic(ctrl.Host().MAC(), 3)

	ctrl.Connect(plc.ConnectSpec{
		Device: dev.Host().MAC(),
		Req:    profinet.ConnectRequest{ARID: 1, CycleUS: 1600, WatchdogFactor: 3, InputLen: 20, OutputLen: 20},
	})
	// ML camera: a burst of 1400-byte fragments every 30 ms (a frame
	// upload), sharing the trunk with the control loop.
	e.Every(sim.Time(5*time.Millisecond), 30*time.Millisecond, sim.Func(func() {
		for i := 0; i < burst; i++ {
			mlSrc.Send(&frame.Frame{
				Dst: mlSink.MAC(), Tagged: true, Priority: mlPrio, VID: 20,
				Type: frame.TypeMLData, Payload: make([]byte, 1400),
			})
		}
	}))
	return e, dev
}

func TestControlSurvivesMLLoadWithPriorities(t *testing.T) {
	// Properly classified (PrioML < PrioRT): strict priority keeps the
	// 1.6 ms control loop alive under 64-fragment bursts whose trunk
	// drain time (7.2 ms) exceeds the device watchdog (4.8 ms).
	e, dev := mixedRig(t, frame.PrioML, 64)
	e.RunUntil(sim.Time(2 * time.Second))
	if dev.FailsafeEvents != 0 {
		t.Fatalf("failsafe events = %d with correct priorities", dev.FailsafeEvents)
	}
	if dev.State() != iodevice.StateOperate {
		t.Fatalf("device state = %v", dev.State())
	}
	if dev.RxCyclic < 1000 {
		t.Fatalf("control frames = %d", dev.RxCyclic)
	}
}

func TestControlDiesWhenMLTrafficMisclassified(t *testing.T) {
	// Misconfigured network (ML marked RT): FIFO within the class lets
	// 7.2 ms bursts starve the control loop past its watchdog — the §5
	// clash between deterministic control and data-hungry ML made
	// concrete.
	e, dev := mixedRig(t, frame.PrioRT, 64)
	e.RunUntil(sim.Time(2 * time.Second))
	if dev.FailsafeEvents == 0 {
		t.Fatal("misclassified ML traffic did not disturb the control loop")
	}
}

func TestSmallMLBurstsHarmlessEitherWay(t *testing.T) {
	// 8-fragment bursts drain in 0.9 ms < watchdog: even misclassified
	// traffic stays under the budget — the danger scales with ML frame
	// size, which is the dimensioning lever §5's design uses.
	e, dev := mixedRig(t, frame.PrioRT, 8)
	e.RunUntil(sim.Time(2 * time.Second))
	if dev.FailsafeEvents != 0 {
		t.Fatalf("failsafes = %d with small bursts", dev.FailsafeEvents)
	}
}
