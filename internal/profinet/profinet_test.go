package profinet

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"steelnet/internal/sim"
)

func TestConnectRequestRoundTrip(t *testing.T) {
	in := ConnectRequest{ARID: 7, CycleUS: 1600, WatchdogFactor: 3, InputLen: 20, OutputLen: 12}
	out, err := UnmarshalConnectRequest(in.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("roundtrip = %+v, want %+v", out, in)
	}
	if out.Cycle() != 1600*time.Microsecond {
		t.Fatalf("cycle = %v", out.Cycle())
	}
	if out.Watchdog() != 4800*time.Microsecond {
		t.Fatalf("watchdog = %v", out.Watchdog())
	}
}

func TestConnectRequestProperty(t *testing.T) {
	f := func(arid, cyc uint32, wf, il, ol uint16) bool {
		in := ConnectRequest{ARID: arid, CycleUS: cyc, WatchdogFactor: wf, InputLen: il, OutputLen: ol}
		out, err := UnmarshalConnectRequest(in.Marshal())
		return err == nil && out == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConnectResponseRoundTrip(t *testing.T) {
	for _, in := range []ConnectResponse{
		{ARID: 1, Accepted: true},
		{ARID: 2, Accepted: false, Reason: ReasonBusy},
	} {
		out, err := UnmarshalConnectResponse(in.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		if out != in {
			t.Fatalf("roundtrip = %+v, want %+v", out, in)
		}
	}
}

func TestCyclicDataRoundTrip(t *testing.T) {
	in := CyclicData{ARID: 9, CycleCounter: 555, Status: StatusRun | StatusValid, Data: []byte{1, 2, 3}}
	out, err := UnmarshalCyclicData(in.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if out.ARID != 9 || out.CycleCounter != 555 || !out.Run() || !out.Valid() {
		t.Fatalf("roundtrip = %+v", out)
	}
	if !bytes.Equal(out.Data, in.Data) {
		t.Fatal("data mismatch")
	}
}

func TestCyclicDataEmptyPayload(t *testing.T) {
	in := CyclicData{ARID: 1}
	out, err := UnmarshalCyclicData(in.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Data) != 0 {
		t.Fatalf("data = %v", out.Data)
	}
	if out.Run() || out.Valid() {
		t.Fatal("zero status decoded as run/valid")
	}
}

func TestAlarmRoundTrip(t *testing.T) {
	in := Alarm{ARID: 4, Code: AlarmWatchdogExpired}
	out, err := UnmarshalAlarm(in.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("roundtrip = %+v", out)
	}
}

func TestReleaseRoundTrip(t *testing.T) {
	in := Release{ARID: 11}
	out, err := UnmarshalRelease(in.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("roundtrip = %+v", out)
	}
}

func TestTruncatedMessagesRejected(t *testing.T) {
	if _, err := PeekFrameID([]byte{1}); err != ErrTruncated {
		t.Fatalf("peek err = %v", err)
	}
	if _, err := UnmarshalConnectRequest(make([]byte, 10)); err != ErrTruncated {
		t.Fatalf("err = %v", err)
	}
	if _, err := UnmarshalCyclicData(make([]byte, 5)); err != ErrTruncated {
		t.Fatalf("err = %v", err)
	}
	if _, err := UnmarshalAlarm(make([]byte, 3)); err != ErrTruncated {
		t.Fatalf("err = %v", err)
	}
}

func TestWrongFrameIDRejected(t *testing.T) {
	cyclic := CyclicData{ARID: 1}.Marshal()
	if _, err := UnmarshalConnectRequest(append(cyclic, make([]byte, 16)...)); err != ErrFrameID {
		t.Fatalf("err = %v", err)
	}
	req := ConnectRequest{ARID: 1}.Marshal()
	if _, err := UnmarshalCyclicData(req); err != ErrFrameID {
		t.Fatalf("err = %v", err)
	}
}

func TestPeekFrameID(t *testing.T) {
	id, err := PeekFrameID(CyclicData{}.Marshal())
	if err != nil || id != FrameIDCyclic {
		t.Fatalf("peek = %v, %v", id, err)
	}
	if id.String() != "cyclic" {
		t.Fatalf("name = %q", id.String())
	}
	if FrameID(0x1234).String() == "" {
		t.Fatal("unknown frame id has empty name")
	}
}

func TestWatchdogTripsAfterFactorCycles(t *testing.T) {
	e := sim.NewEngine(1)
	tripped := false
	var tripAt sim.Time
	w := NewWatchdog(e, time.Millisecond, 3, func() { tripped = true; tripAt = e.Now() }, nil)
	e.Schedule(0, sim.Func(w.Feed))
	e.RunUntil(sim.Time(10 * time.Millisecond))
	if !tripped {
		t.Fatal("watchdog never tripped")
	}
	if tripAt != sim.Time(3*time.Millisecond) {
		t.Fatalf("tripped at %v, want 3ms", tripAt)
	}
	if w.Trips != 1 {
		t.Fatalf("trips = %d", w.Trips)
	}
}

func TestWatchdogFedStaysQuiet(t *testing.T) {
	e := sim.NewEngine(1)
	w := NewWatchdog(e, time.Millisecond, 3, func() { t.Fatal("tripped despite feeding") }, nil)
	tk := e.Every(0, time.Millisecond, sim.Func(w.Feed))
	e.RunUntil(sim.Time(50 * time.Millisecond))
	tk.Stop()
	w.Stop()
	e.Run()
}

func TestWatchdogToleratesSingleMiss(t *testing.T) {
	e := sim.NewEngine(1)
	w := NewWatchdog(e, time.Millisecond, 3, func() { t.Fatal("tripped on single miss") }, nil)
	// Feed at 0,1,2, skip 3, feed at 4: gap of 2 cycles < 3.
	for _, at := range []int64{0, 1, 2, 4, 5} {
		e.Schedule(sim.Time(at)*sim.Time(time.Millisecond), sim.Func(w.Feed))
	}
	e.RunUntil(sim.Time(6 * time.Millisecond))
	w.Stop()
	e.Run()
}

func TestWatchdogReturnOfPeer(t *testing.T) {
	e := sim.NewEngine(1)
	cleared := false
	w := NewWatchdog(e, time.Millisecond, 2, nil, func() { cleared = true })
	e.Schedule(0, sim.Func(w.Feed))
	// Silence until 10 ms (trips at 2 ms), then data returns.
	e.Schedule(sim.Time(10*time.Millisecond), sim.Func(w.Feed))
	e.RunUntil(sim.Time(11 * time.Millisecond))
	if !cleared {
		t.Fatal("return-of-peer not signaled")
	}
	if w.Expired() {
		t.Fatal("still expired after feed")
	}
	w.Stop()
	e.Run()
}

func TestWatchdogStopDisarms(t *testing.T) {
	e := sim.NewEngine(1)
	w := NewWatchdog(e, time.Millisecond, 1, func() { t.Fatal("tripped after stop") }, nil)
	w.Feed()
	w.Stop()
	e.Run()
}

func TestWatchdogBadParamsPanic(t *testing.T) {
	e := sim.NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Fatal("bad params accepted")
		}
	}()
	NewWatchdog(e, 0, 3, nil, nil)
}
