package plc

import (
	"testing"
	"time"

	"steelnet/internal/frame"
	"steelnet/internal/host"
	"steelnet/internal/iodevice"
	"steelnet/internal/profinet"
	"steelnet/internal/sim"
	"steelnet/internal/simnet"
	"steelnet/internal/tap"
)

// cell wires one controller and one device through a switch and returns
// both plus the engine.
func cell(t *testing.T, cfg ControllerConfig) (*sim.Engine, *Controller, *iodevice.Device) {
	t.Helper()
	e := sim.NewEngine(1)
	ctrl := NewController(e, "plc1", frame.NewMAC(1), cfg)
	dev := iodevice.New(e, "io1", frame.NewMAC(2), nil, nil)
	sw := simnet.NewSwitch(e, "sw", 2, simnet.DefaultSwitchConfig)
	simnet.Connect(e, "c", ctrl.Host().Port(), sw.Port(0), 100e6, 500*sim.Nanosecond)
	simnet.Connect(e, "d", dev.Host().Port(), sw.Port(1), 100e6, 500*sim.Nanosecond)
	return e, ctrl, dev
}

// connReq builds a profinet.ConnectRequest, keeping call sites short.
func connReq(arid, cycleUS uint32, wd, in, out uint16) profinet.ConnectRequest {
	return profinet.ConnectRequest{ARID: arid, CycleUS: cycleUS, WatchdogFactor: wd, InputLen: in, OutputLen: out}
}

func TestConnectEstablishesCR(t *testing.T) {
	e, ctrl, dev := cell(t, ControllerConfig{})
	connected := false
	ctrl.OnConnected = func(arid uint32) { connected = true }
	ctrl.Connect(ConnectSpec{
		Device: frame.NewMAC(2),
		Req:    connReq(7, 1600, 3, 4, 4),
	})
	e.RunUntil(sim.Time(100 * time.Millisecond))
	if !connected {
		t.Fatal("CR not established")
	}
	if ctrl.State(7) != StateRunning {
		t.Fatalf("state = %v", ctrl.State(7))
	}
	if dev.State() != iodevice.StateOperate {
		t.Fatalf("device state = %v", dev.State())
	}
}

func TestCyclicDataFlowsBothWays(t *testing.T) {
	e, ctrl, dev := cell(t, ControllerConfig{})
	ctrl.Connect(ConnectSpec{Device: frame.NewMAC(2), Req: connReq(7, 1600, 3, 4, 4)})
	e.RunUntil(sim.Time(500 * time.Millisecond))
	if ctrl.TxCyclic < 250 || dev.TxCyclic < 250 {
		t.Fatalf("tx counts: ctrl=%d dev=%d", ctrl.TxCyclic, dev.TxCyclic)
	}
	if ctrl.RxCyclic < 250 || dev.RxCyclic < 250 {
		t.Fatalf("rx counts: ctrl=%d dev=%d", ctrl.RxCyclic, dev.RxCyclic)
	}
	if dev.FailsafeEvents != 0 {
		t.Fatal("failsafe during normal operation")
	}
}

func TestOutputsReachDeviceActuators(t *testing.T) {
	e, ctrl, dev := cell(t, ControllerConfig{})
	ctrl.Connect(ConnectSpec{Device: frame.NewMAC(2), Req: connReq(7, 1600, 3, 4, 4)})
	e.RunUntil(sim.Time(50 * time.Millisecond))
	ctrl.Image().Outputs[0] = 0xaa
	e.RunUntil(sim.Time(100 * time.Millisecond))
	if dev.Outputs()[0] != 0xaa {
		t.Fatalf("device outputs = % x", dev.Outputs())
	}
}

func TestEchoProcessFeedsInputsBack(t *testing.T) {
	e, ctrl, dev := cell(t, ControllerConfig{})
	_ = dev
	ctrl.Connect(ConnectSpec{Device: frame.NewMAC(2), Req: connReq(7, 1600, 3, 4, 4)})
	e.RunUntil(sim.Time(50 * time.Millisecond))
	ctrl.Image().Outputs[0] = 0x55
	e.RunUntil(sim.Time(100 * time.Millisecond))
	if ctrl.Inputs(7)[0] != 0x55 {
		t.Fatalf("inputs = % x", ctrl.Inputs(7))
	}
}

func TestLogicRunsEveryCycle(t *testing.T) {
	logic := &ILProgram{Name: "copy", Insns: []ILInsn{LD(I(0, 0)), ST(Q(0, 0))}}
	e, ctrl, dev := cell(t, ControllerConfig{Logic: logic})
	_ = dev
	ctrl.Connect(ConnectSpec{Device: frame.NewMAC(2), Req: connReq(7, 1600, 3, 4, 4)})
	e.RunUntil(sim.Time(200 * time.Millisecond))
	if ctrl.ScanCount < 100 {
		t.Fatalf("scans = %d", ctrl.ScanCount)
	}
}

func TestControllerFailStopsTraffic(t *testing.T) {
	e, ctrl, dev := cell(t, ControllerConfig{})
	ctrl.Connect(ConnectSpec{Device: frame.NewMAC(2), Req: connReq(7, 1600, 3, 4, 4)})
	e.RunUntil(sim.Time(100 * time.Millisecond))
	tx := ctrl.TxCyclic
	ctrl.Fail()
	e.RunUntil(sim.Time(200 * time.Millisecond))
	if ctrl.TxCyclic != tx {
		t.Fatal("failed controller kept transmitting")
	}
	if dev.State() != iodevice.StateFailsafe {
		t.Fatalf("device state = %v, want failsafe", dev.State())
	}
	if dev.FailsafeEvents != 1 {
		t.Fatalf("failsafe events = %d", dev.FailsafeEvents)
	}
}

func TestDeviceWatchdogTripsAfterFactorCycles(t *testing.T) {
	e, ctrl, dev := cell(t, ControllerConfig{})
	var failAt, tripAt sim.Time
	dev.OnFailsafe = func() { tripAt = e.Now() }
	ctrl.Connect(ConnectSpec{Device: frame.NewMAC(2), Req: connReq(7, 1600, 3, 4, 4)})
	e.RunUntil(sim.Time(100 * time.Millisecond))
	failAt = e.Now()
	ctrl.Fail()
	e.RunUntil(sim.Time(200 * time.Millisecond))
	gap := tripAt.Sub(failAt)
	// Watchdog = 3 × 1.6 ms = 4.8 ms (+ up to one in-flight cycle).
	if gap < 4*time.Millisecond || gap > 8*time.Millisecond {
		t.Fatalf("failsafe after %v, want ≈4.8ms", gap)
	}
}

func TestControllerDetectsDeviceLoss(t *testing.T) {
	e, ctrl, dev := cell(t, ControllerConfig{})
	lost := false
	ctrl.OnPeerLost = func(arid uint32) { lost = true }
	ctrl.Connect(ConnectSpec{Device: frame.NewMAC(2), Req: connReq(7, 1600, 3, 4, 4)})
	e.RunUntil(sim.Time(100 * time.Millisecond))
	// Cut the device's link.
	dev.Host().Port().Link().SetUp(false)
	e.RunUntil(sim.Time(200 * time.Millisecond))
	if !lost {
		t.Fatal("controller never noticed device loss")
	}
	if ctrl.State(7) != StatePeerLost {
		t.Fatalf("state = %v", ctrl.State(7))
	}
}

func TestSecondControllerRejectedBusy(t *testing.T) {
	e := sim.NewEngine(1)
	c1 := NewController(e, "plc1", frame.NewMAC(1), ControllerConfig{})
	c2 := NewController(e, "plc2", frame.NewMAC(3), ControllerConfig{})
	dev := iodevice.New(e, "io1", frame.NewMAC(2), nil, nil)
	sw := simnet.NewSwitch(e, "sw", 3, simnet.DefaultSwitchConfig)
	simnet.Connect(e, "c1", c1.Host().Port(), sw.Port(0), 100e6, 0)
	simnet.Connect(e, "c2", c2.Host().Port(), sw.Port(1), 100e6, 0)
	simnet.Connect(e, "d", dev.Host().Port(), sw.Port(2), 100e6, 0)
	var rejected uint8
	c2.OnRejected = func(_ uint32, reason uint8) { rejected = reason }
	c1.Connect(ConnectSpec{Device: frame.NewMAC(2), Req: connReq(7, 1600, 3, 4, 4)})
	e.RunUntil(sim.Time(50 * time.Millisecond))
	c2.Connect(ConnectSpec{Device: frame.NewMAC(2), Req: connReq(8, 1600, 3, 4, 4)})
	e.RunUntil(sim.Time(150 * time.Millisecond))
	if rejected != 2-1 { // ReasonBusy == 1
		t.Fatalf("rejection reason = %d, want busy", rejected)
	}
	if dev.RejectedConnects == 0 {
		t.Fatal("device did not count rejection")
	}
}

func TestVPLCJitterVisibleInCycleSpacing(t *testing.T) {
	e := sim.NewEngine(1)
	stack := host.NewStack(host.Standard, e.RNG("vplc"))
	ctrl := NewController(e, "vplc", frame.NewMAC(1), ControllerConfig{Stack: stack})
	dev := iodevice.New(e, "io", frame.NewMAC(2), nil, nil)
	// A tap between the vPLC and the device records exact emission times.
	tp := tap.New(e, "tap", tap.DefaultConfig)
	var arrivals []int64
	tp.OnCapture = func(c tap.Capture) {
		if c.Dir == tap.AtoB && c.Type == frame.TypeProfinet {
			arrivals = append(arrivals, c.Timestamp)
		}
	}
	simnet.Connect(e, "c", ctrl.Host().Port(), tp.PortA(), 100e6, 0)
	simnet.Connect(e, "d", tp.PortB(), dev.Host().Port(), 100e6, 0)
	ctrl.Connect(ConnectSpec{Device: frame.NewMAC(2), Req: connReq(7, 2000, 3, 4, 4)})
	e.RunUntil(sim.Time(400 * time.Millisecond))
	if len(arrivals) < 100 {
		t.Fatalf("arrivals = %d", len(arrivals))
	}
	// With Standard kernel jitter, inter-arrival spacing must vary.
	varied := false
	for i := 2; i < len(arrivals); i++ {
		if arrivals[i]-arrivals[i-1] != arrivals[i-1]-arrivals[i-2] {
			varied = true
			break
		}
	}
	if !varied {
		t.Fatal("vPLC cycles perfectly regular despite host jitter")
	}
}

func TestConnectRetriesUntilDeviceAppears(t *testing.T) {
	e, ctrl, dev := cell(t, ControllerConfig{})
	// Device link starts down; comes up after 350 ms.
	link := dev.Host().Port().Link()
	link.SetUp(false)
	connected := false
	ctrl.OnConnected = func(uint32) { connected = true }
	ctrl.Connect(ConnectSpec{Device: frame.NewMAC(2), Req: connReq(7, 1600, 3, 4, 4)})
	e.RunUntil(sim.Time(350 * time.Millisecond))
	if connected {
		t.Fatal("connected through downed link")
	}
	link.SetUp(true)
	e.RunUntil(sim.Time(600 * time.Millisecond))
	if !connected {
		t.Fatal("connect retry never succeeded")
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[ConnState]string{
		StateConnecting: "connecting", StateRunning: "running",
		StatePeerLost: "peer-lost", StateRejected: "rejected",
	} {
		if s.String() != want {
			t.Fatalf("%d = %q", s, s.String())
		}
	}
}

func TestDiscoverFindsDevicesByName(t *testing.T) {
	e := sim.NewEngine(1)
	ctrl := NewController(e, "plc", frame.NewMAC(1), ControllerConfig{})
	devA := iodevice.New(e, "cell-a/io", frame.NewMAC(2), nil, nil)
	devB := iodevice.New(e, "cell-b/io", frame.NewMAC(3), nil, nil)
	sw := simnet.NewSwitch(e, "sw", 3, simnet.DefaultSwitchConfig)
	simnet.Connect(e, "c", ctrl.Host().Port(), sw.Port(0), 100e6, 0)
	simnet.Connect(e, "a", devA.Host().Port(), sw.Port(1), 100e6, 0)
	simnet.Connect(e, "b", devB.Host().Port(), sw.Port(2), 100e6, 0)

	var all, filtered []Station
	ctrl.Discover("", 10*time.Millisecond, func(s []Station) { all = s })
	e.RunUntil(sim.Time(20 * time.Millisecond))
	ctrl.Discover("cell-b/io", 10*time.Millisecond, func(s []Station) { filtered = s })
	e.RunUntil(sim.Time(40 * time.Millisecond))

	if len(all) != 2 || all[0].Name != "cell-a/io" || all[1].Name != "cell-b/io" {
		t.Fatalf("all = %+v", all)
	}
	if all[0].MAC != devA.Host().MAC() {
		t.Fatal("MAC not learned from response source")
	}
	if len(filtered) != 1 || filtered[0].Name != "cell-b/io" {
		t.Fatalf("filtered = %+v", filtered)
	}
	// Discovered MAC is directly connectable.
	connected := false
	ctrl.OnConnected = func(uint32) { connected = true }
	ctrl.Connect(ConnectSpec{Device: filtered[0].MAC, Req: connReq(5, 1600, 3, 4, 4)})
	e.RunUntil(sim.Time(100 * time.Millisecond))
	if !connected {
		t.Fatal("connect to discovered device failed")
	}
}

func TestDiscoverEmptyNetwork(t *testing.T) {
	e := sim.NewEngine(1)
	ctrl := NewController(e, "plc", frame.NewMAC(1), ControllerConfig{})
	peer := simnet.NewHost(e, "peer", frame.NewMAC(9))
	simnet.Connect(e, "l", ctrl.Host().Port(), peer.Port(), 100e6, 0)
	var got []Station
	called := false
	ctrl.Discover("", 5*time.Millisecond, func(s []Station) { got = s; called = true })
	e.RunUntil(sim.Time(20 * time.Millisecond))
	if !called {
		t.Fatal("done callback never ran")
	}
	if len(got) != 0 {
		t.Fatalf("got = %+v", got)
	}
}

func TestControllerRestartReestablishesCR(t *testing.T) {
	e, ctrl, dev := cell(t, ControllerConfig{})
	ctrl.Connect(ConnectSpec{Device: frame.NewMAC(2), Req: connReq(7, 1600, 3, 4, 4)})
	e.RunUntil(sim.Time(100 * time.Millisecond))
	ctrl.Fail()
	e.RunUntil(sim.Time(200 * time.Millisecond))
	if dev.State() != iodevice.StateFailsafe {
		t.Fatalf("device state = %v", dev.State())
	}
	ctrl.Restart()
	e.RunUntil(sim.Time(500 * time.Millisecond))
	if dev.State() != iodevice.StateOperate {
		t.Fatalf("device state after restart = %v", dev.State())
	}
	if ctrl.State(7) != StateRunning {
		t.Fatalf("CR state = %v", ctrl.State(7))
	}
}

func TestRestartOnHealthyControllerIsNoop(t *testing.T) {
	e, ctrl, _ := cell(t, ControllerConfig{})
	ctrl.Connect(ConnectSpec{Device: frame.NewMAC(2), Req: connReq(7, 1600, 3, 4, 4)})
	e.RunUntil(sim.Time(100 * time.Millisecond))
	tx := ctrl.TxCyclic
	ctrl.Restart() // not failed: must not reset anything
	e.RunUntil(sim.Time(150 * time.Millisecond))
	if ctrl.TxCyclic <= tx {
		t.Fatal("healthy controller disturbed by Restart")
	}
}

// TestVPLCCrashReturnsFramesInTheKernelPath: a vPLC's frames spend the
// kernel transmit delay inside the controller; a crash in that window
// must hand them back to the pool, not strand them, and the kernel-path
// jobs must recycle instead of being built per frame.
func TestVPLCCrashReturnsFramesInTheKernelPath(t *testing.T) {
	e := sim.NewEngine(1)
	var pool frame.Pool
	stack := host.NewStack(host.Standard, e.RNG("vplc"))
	ctrl := NewController(e, "vplc", frame.NewMAC(1), ControllerConfig{Stack: stack})
	dev := iodevice.New(e, "io", frame.NewMAC(2), nil, nil)
	ctrl.UsePool(&pool)
	dev.UsePool(&pool)
	simnet.Connect(e, "l", ctrl.Host().Port(), dev.Host().Port(), 100e6, 500*sim.Nanosecond)
	ctrl.Connect(ConnectSpec{Device: frame.NewMAC(2), Req: connReq(1, 1600, 3, 4, 4)})
	e.RunUntil(sim.Time(200 * time.Millisecond))
	if ctrl.TxCyclic < 100 {
		t.Fatalf("vPLC sent %d cyclic frames", ctrl.TxCyclic)
	}
	jobs := countJobs(ctrl)
	if jobs == 0 || jobs > 3 {
		t.Fatalf("%d kernel-path jobs on the free list after %d frames, want the few ever in flight at once", jobs, ctrl.TxCyclic)
	}
	// Step to an instant with a frame inside the kernel path, then crash.
	for i := 0; i < 3200 && countJobs(ctrl) == jobs; i++ {
		e.RunUntil(e.Now().Add(sim.Microsecond))
	}
	if countJobs(ctrl) == jobs {
		t.Fatal("never caught a frame inside the kernel path")
	}
	ctrl.Fail()
	e.RunUntil(e.Now().Add(10 * time.Millisecond)) // the device falls silent into failsafe; its input frames still flow
	sent := ctrl.Host().Port().TxFrames
	e.RunUntil(e.Now().Add(10 * time.Millisecond))
	if ctrl.Host().Port().TxFrames != sent {
		t.Fatal("crashed vPLC kept transmitting")
	}
	if countJobs(ctrl) != jobs {
		t.Fatalf("kernel-path job not recycled after the crash: %d on the free list, want %d", countJobs(ctrl), jobs)
	}
	// Only the device still transmits; between its cycles nothing is out.
	for i := 0; i < 3200 && pool.Outstanding() != 0; i++ {
		e.RunUntil(e.Now().Add(sim.Microsecond))
	}
	if pool.Outstanding() != 0 {
		t.Fatalf("%d frames stranded by the crash (pool %+v)", pool.Outstanding(), pool)
	}
}

func countJobs(c *Controller) int {
	n := 0
	for j := c.txJobs; j != nil; j = j.next {
		n++
	}
	return n
}
