package iodevice

import (
	"testing"
	"time"

	"steelnet/internal/frame"
	"steelnet/internal/profinet"
	"steelnet/internal/sim"
	"steelnet/internal/simnet"
)

// bench wires a device to a bare scripted host standing in for a
// controller, so protocol details can be driven frame by frame.
func bench(t *testing.T, process Process, safe []byte) (*sim.Engine, *simnet.Host, *Device, *[]profinet.FrameID) {
	t.Helper()
	e := sim.NewEngine(1)
	ctl := simnet.NewHost(e, "ctl", frame.NewMAC(1))
	dev := New(e, "dev", frame.NewMAC(2), process, safe)
	simnet.Connect(e, "l", ctl.Port(), dev.Host().Port(), 100e6, 0)
	var seen []profinet.FrameID
	ctl.OnReceive(func(f *frame.Frame) {
		if id, err := profinet.PeekFrameID(f.Payload); err == nil {
			seen = append(seen, id)
		}
	})
	return e, ctl, dev, &seen
}

func sendPN(ctl *simnet.Host, payload []byte) {
	ctl.Send(&frame.Frame{Dst: frame.NewMAC(2), Tagged: true, Priority: frame.PrioRT, VID: 10, Type: frame.TypeProfinet, Payload: payload})
}

func req(arid uint32) profinet.ConnectRequest {
	return profinet.ConnectRequest{ARID: arid, CycleUS: 1000, WatchdogFactor: 3, InputLen: 2, OutputLen: 2}
}

func TestIdleDeviceIgnoresCyclic(t *testing.T) {
	e, ctl, dev, _ := bench(t, nil, nil)
	sendPN(ctl, profinet.CyclicData{ARID: 1, Status: profinet.StatusValid, Data: []byte{1, 2}}.Marshal())
	e.Run()
	if dev.RxCyclic != 0 {
		t.Fatal("idle device consumed cyclic data")
	}
	if dev.State() != StateIdle {
		t.Fatalf("state = %v", dev.State())
	}
}

// feedOutputs drives the device with fresh output data every cycle,
// standing in for a live controller.
func feedOutputs(e *sim.Engine, ctl *simnet.Host, arid uint32, data []byte) *sim.Ticker {
	return e.Every(e.Now(), time.Millisecond, sim.Func(func() {
		sendPN(ctl, profinet.CyclicData{ARID: arid, Status: profinet.StatusValid | profinet.StatusRun, Data: data}.Marshal())
	}))
}

func TestConnectAcceptAndCyclicStart(t *testing.T) {
	e, ctl, dev, seen := bench(t, nil, nil)
	sendPN(ctl, req(5).Marshal())
	e.RunUntil(sim.Time(time.Millisecond))
	feedOutputs(e, ctl, 5, []byte{0, 0})
	e.RunUntil(sim.Time(10 * time.Millisecond))
	if dev.State() != StateOperate {
		t.Fatalf("state = %v", dev.State())
	}
	// Controller saw a connect response and then cyclic input frames.
	if len(*seen) < 2 || (*seen)[0] != profinet.FrameIDConnectResp {
		t.Fatalf("seen = %v", *seen)
	}
	if dev.TxCyclic < 8 {
		t.Fatalf("cyclic frames = %d", dev.TxCyclic)
	}
}

func TestBadParametersRejected(t *testing.T) {
	e, ctl, dev, seen := bench(t, nil, nil)
	bad := profinet.ConnectRequest{ARID: 5, CycleUS: 0, WatchdogFactor: 3}
	sendPN(ctl, bad.Marshal())
	e.Run()
	if dev.State() != StateIdle {
		t.Fatal("bad request accepted")
	}
	if len(*seen) != 1 || (*seen)[0] != profinet.FrameIDConnectResp {
		t.Fatalf("seen = %v", *seen)
	}
}

func TestProcessTransformsOutputsToInputs(t *testing.T) {
	// Process: input[0] = output[0] + 1 (a counter station).
	proc := func(_ sim.Time, out, in []byte) {
		if len(out) > 0 && len(in) > 0 {
			in[0] = out[0] + 1
		}
	}
	e, ctl, dev, _ := bench(t, proc, nil)
	var lastInput byte
	sendPN(ctl, req(5).Marshal())
	ctl.OnReceive(func(f *frame.Frame) {
		if cd, err := profinet.UnmarshalCyclicData(f.Payload); err == nil {
			lastInput = cd.Data[0]
		}
	})
	e.RunUntil(sim.Time(time.Millisecond))
	feedOutputs(e, ctl, 5, []byte{41, 0})
	e.RunUntil(sim.Time(10 * time.Millisecond))
	if lastInput != 42 {
		t.Fatalf("input = %d, want 42", lastInput)
	}
	if dev.OutputUpdates == 0 {
		t.Fatal("output update not counted")
	}
}

func TestWatchdogFailsafeForcesSafeOutputs(t *testing.T) {
	e, ctl, dev, _ := bench(t, nil, []byte{0xde, 0xad})
	sendPN(ctl, req(5).Marshal())
	e.RunUntil(sim.Time(2 * time.Millisecond))
	sendPN(ctl, profinet.CyclicData{ARID: 5, Status: profinet.StatusValid, Data: []byte{1, 2}}.Marshal())
	e.RunUntil(sim.Time(4 * time.Millisecond))
	if dev.Outputs()[0] != 1 {
		t.Fatal("outputs not applied")
	}
	// Silence: watchdog (3 × 1 ms) trips, safe outputs forced.
	e.RunUntil(sim.Time(20 * time.Millisecond))
	if dev.State() != StateFailsafe {
		t.Fatalf("state = %v", dev.State())
	}
	out := dev.Outputs()
	if out[0] != 0xde || out[1] != 0xad {
		t.Fatalf("outputs = % x, want safe state", out)
	}
}

func TestFailsafeRaisesAlarm(t *testing.T) {
	e, ctl, _, seen := bench(t, nil, nil)
	sendPN(ctl, req(5).Marshal())
	e.RunUntil(sim.Time(2 * time.Millisecond))
	sendPN(ctl, profinet.CyclicData{ARID: 5, Status: profinet.StatusValid, Data: []byte{0, 0}}.Marshal())
	e.RunUntil(sim.Time(20 * time.Millisecond))
	found := false
	for _, id := range *seen {
		if id == profinet.FrameIDAlarm {
			found = true
		}
	}
	if !found {
		t.Fatal("no alarm on watchdog expiry")
	}
}

func TestRecoveryFromFailsafe(t *testing.T) {
	e, ctl, dev, _ := bench(t, nil, nil)
	sendPN(ctl, req(5).Marshal())
	e.RunUntil(sim.Time(2 * time.Millisecond))
	sendPN(ctl, profinet.CyclicData{ARID: 5, Status: profinet.StatusValid, Data: []byte{7, 7}}.Marshal())
	e.RunUntil(sim.Time(20 * time.Millisecond)) // trip
	if dev.State() != StateFailsafe {
		t.Fatalf("state = %v", dev.State())
	}
	// Fresh output data returns and keeps flowing: device recovers.
	feedOutputs(e, ctl, 5, []byte{8, 8})
	e.RunUntil(e.Now().Add(5 * time.Millisecond))
	if dev.State() != StateOperate {
		t.Fatalf("state after recovery = %v", dev.State())
	}
	if dev.Outputs()[0] != 8 {
		t.Fatal("recovered outputs not applied")
	}
}

func TestFailsafeDeviceKeepsPublishingInputs(t *testing.T) {
	e, ctl, dev, _ := bench(t, nil, nil)
	sendPN(ctl, req(5).Marshal())
	e.RunUntil(sim.Time(2 * time.Millisecond))
	sendPN(ctl, profinet.CyclicData{ARID: 5, Status: profinet.StatusValid, Data: []byte{0, 0}}.Marshal())
	e.RunUntil(sim.Time(20 * time.Millisecond))
	tx := dev.TxCyclic
	e.RunUntil(sim.Time(40 * time.Millisecond))
	if dev.TxCyclic <= tx {
		t.Fatal("failsafe device stopped publishing inputs")
	}
}

func TestControllerReplacementAfterFailsafe(t *testing.T) {
	e := sim.NewEngine(1)
	c1 := simnet.NewHost(e, "c1", frame.NewMAC(1))
	c2 := simnet.NewHost(e, "c2", frame.NewMAC(3))
	dev := New(e, "dev", frame.NewMAC(2), nil, nil)
	sw := simnet.NewSwitch(e, "sw", 3, simnet.SwitchConfig{Latency: sim.Microsecond})
	simnet.Connect(e, "1", c1.Port(), sw.Port(0), 100e6, 0)
	simnet.Connect(e, "2", c2.Port(), sw.Port(1), 100e6, 0)
	simnet.Connect(e, "d", dev.Host().Port(), sw.Port(2), 100e6, 0)
	var c2Accepted bool
	c2.OnReceive(func(f *frame.Frame) {
		if resp, err := profinet.UnmarshalConnectResponse(f.Payload); err == nil && resp.Accepted {
			c2Accepted = true
		}
	})
	c1.Send(&frame.Frame{Dst: frame.NewMAC(2), Type: frame.TypeProfinet, Payload: req(5).Marshal()})
	e.RunUntil(sim.Time(2 * time.Millisecond))
	// c1 dies silently; device trips at ~3 ms of silence.
	e.RunUntil(sim.Time(20 * time.Millisecond))
	if dev.State() != StateFailsafe {
		t.Fatalf("state = %v", dev.State())
	}
	// c2 takes over.
	c2.Send(&frame.Frame{Dst: frame.NewMAC(2), Type: frame.TypeProfinet, Payload: req(9).Marshal()})
	e.RunUntil(sim.Time(40 * time.Millisecond))
	if !c2Accepted {
		t.Fatal("replacement controller rejected")
	}
	if dev.Controller() != c2.MAC() {
		t.Fatal("controller not switched")
	}
}

func TestReleaseTearsDown(t *testing.T) {
	e, ctl, dev, _ := bench(t, nil, nil)
	sendPN(ctl, req(5).Marshal())
	e.RunUntil(sim.Time(5 * time.Millisecond))
	sendPN(ctl, profinet.Release{ARID: 5}.Marshal())
	e.RunUntil(sim.Time(10 * time.Millisecond))
	if dev.State() != StateIdle {
		t.Fatalf("state = %v", dev.State())
	}
	tx := dev.TxCyclic
	e.RunUntil(sim.Time(20 * time.Millisecond))
	if dev.TxCyclic != tx {
		t.Fatal("released device kept sending")
	}
}

func TestStateString(t *testing.T) {
	if StateIdle.String() != "idle" || StateOperate.String() != "operate" || StateFailsafe.String() != "failsafe" {
		t.Fatal("state names broken")
	}
}

func TestReturnOfPeerAlarmOnRecovery(t *testing.T) {
	e, ctl, dev, _ := bench(t, nil, nil)
	var codes []uint16
	ctl.OnReceive(func(f *frame.Frame) {
		if a, err := profinet.UnmarshalAlarm(f.Payload); err == nil {
			codes = append(codes, a.Code)
		}
	})
	sendPN(ctl, req(5).Marshal())
	e.RunUntil(sim.Time(2 * time.Millisecond))
	sendPN(ctl, profinet.CyclicData{ARID: 5, Status: profinet.StatusValid, Data: []byte{1, 1}}.Marshal())
	e.RunUntil(sim.Time(20 * time.Millisecond)) // silence -> failsafe
	feedOutputs(e, ctl, 5, []byte{2, 2})        // data returns
	e.RunUntil(sim.Time(30 * time.Millisecond))
	if dev.State() != StateOperate {
		t.Fatalf("state = %v", dev.State())
	}
	var sawExpiry, sawReturn bool
	for _, c := range codes {
		if c == profinet.AlarmWatchdogExpired {
			sawExpiry = true
		}
		if c == profinet.AlarmReturnOfPeer {
			sawReturn = true
		}
	}
	if !sawExpiry || !sawReturn {
		t.Fatalf("alarm codes = %v, want expiry then return-of-peer", codes)
	}
}

// TestFailsafeCoversEveryOutput: a failsafe device must force ALL of
// the connected CR's outputs safe — also the ones a short configured
// safe image does not reach, and the ones a reconnect with a longer
// OutputLen added after the first connect sized the image.
func TestFailsafeCoversEveryOutput(t *testing.T) {
	for _, tc := range []struct {
		name    string
		safe    []byte
		connect []uint16 // OutputLen of each successive CR; a release separates them
		want    []byte
	}{
		{"short safe image", []byte{0xde}, []uint16{4}, []byte{0xde, 0, 0, 0}},
		{"reconnect with longer outputs", nil, []uint16{4, 8}, make([]byte, 8)},
		{"short image, longer reconnect", []byte{0xde, 0xad}, []uint16{2, 6}, []byte{0xde, 0xad, 0, 0, 0, 0}},
		{"image longer than outputs", []byte{9, 8, 7, 6}, []uint16{2}, []byte{9, 8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, ctl, dev, _ := bench(t, nil, tc.safe)
			for i, n := range tc.connect {
				arid := uint32(5 + i)
				r := req(arid)
				r.OutputLen = n
				sendPN(ctl, r.Marshal())
				e.RunFor(time.Millisecond)
				cmd := make([]byte, n)
				for k := range cmd {
					cmd[k] = 0x55
				}
				sendPN(ctl, profinet.CyclicData{ARID: arid, Status: profinet.StatusValid | profinet.StatusRun, Data: cmd}.Marshal())
				e.RunFor(time.Millisecond)
				if got := dev.Outputs(); len(got) != int(n) || got[n-1] != 0x55 {
					t.Fatalf("CR %d: commanded outputs = % x", i, got)
				}
				if i < len(tc.connect)-1 {
					sendPN(ctl, profinet.Release{ARID: arid}.Marshal())
					e.RunFor(time.Millisecond)
					if dev.State() != StateIdle {
						t.Fatalf("CR %d: state after release = %v", i, dev.State())
					}
				}
			}
			e.RunFor(20 * time.Millisecond) // silence: 3 × 1 ms watchdog trips
			if dev.State() != StateFailsafe {
				t.Fatalf("state = %v, want failsafe", dev.State())
			}
			if got := dev.Outputs(); string(got) != string(tc.want) {
				t.Fatalf("failsafe outputs = % x, want % x", got, tc.want)
			}
		})
	}
}
