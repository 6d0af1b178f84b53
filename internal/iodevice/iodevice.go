// Package iodevice implements the PROFINET device role: the field-level
// I/O station that turns sensor readings into cyclic input frames and
// applies received output frames to its actuators. Its safety behaviour
// is the one the paper's availability argument hinges on (§2.1, §4):
// when no valid output data arrives for the configured number of
// consecutive cycles, the device trips its watchdog and enters failsafe
// — actuators go to a safe state and production halts. Fig. 5's claim
// is exactly that InstaPLC keeps this from ever happening during a vPLC
// failure.
package iodevice

import (
	"time"

	"steelnet/internal/frame"
	"steelnet/internal/profinet"
	"steelnet/internal/sim"
	"steelnet/internal/simnet"
)

// State is the device's operational state.
type State int

// Device states.
const (
	StateIdle     State = iota // no controller connected
	StateOperate               // exchanging valid IO data
	StateFailsafe              // watchdog expired; outputs forced safe
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateOperate:
		return "operate"
	case StateFailsafe:
		return "failsafe"
	}
	return "unknown"
}

// Process models the physical side of the station: given the current
// actuator outputs, produce the next sensor inputs. Called once per IO
// cycle.
type Process func(now sim.Time, outputs []byte, inputs []byte)

// EchoProcess is a simple default: inputs mirror outputs (a loopback
// test station).
func EchoProcess(_ sim.Time, outputs, inputs []byte) { copy(inputs, outputs) }

// Device is an I/O station.
type Device struct {
	name    string
	engine  *sim.Engine
	hst     *simnet.Host
	process Process

	state      State
	controller frame.MAC
	arid       uint32
	cycle      time.Duration
	inputs     []byte
	outputs    []byte
	safeConfig []byte // failsafe actuator state as configured at New
	safe       []byte // safeConfig fitted to the connected CR's output length
	counter    uint16
	watchdog   *profinet.Watchdog
	ticker     *sim.Ticker

	// OnFailsafe fires on each failsafe entry.
	OnFailsafe func()
	// OnConnected fires when a controller establishes the CR.
	OnConnected func(arid uint32)

	// Counters for experiment assertions.
	TxCyclic, RxCyclic uint64
	FailsafeEvents     uint64
	RejectedConnects   uint64
	OutputUpdates      uint64
}

// New creates a device. safeOutputs is the failsafe actuator state
// (nil means all-zero of the CR's output length).
func New(e *sim.Engine, name string, mac frame.MAC, process Process, safeOutputs []byte) *Device {
	if process == nil {
		process = EchoProcess
	}
	d := &Device{name: name, engine: e, hst: simnet.NewHost(e, name, mac), process: process,
		safeConfig: safeOutputs}
	d.hst.OnReceive(d.onFrame)
	return d
}

// UsePool puts the device on p, the free list it shares with the other
// stations of its cell (see simnet.Host.UsePool).
func (d *Device) UsePool(p *frame.Pool) { d.hst.UsePool(p) }

// Host returns the underlying simnet host for wiring.
func (d *Device) Host() *simnet.Host { return d.hst }

// State returns the current device state.
func (d *Device) State() State { return d.state }

// Outputs returns a copy of the currently applied actuator outputs.
func (d *Device) Outputs() []byte { return append([]byte(nil), d.outputs...) }

// Controller returns the MAC of the controlling PLC (zero when idle).
func (d *Device) Controller() frame.MAC { return d.controller }

// onFrame is the terminal consumer of every frame the host delivers:
// the handlers copy what they keep, so the frame returns to the pool.
func (d *Device) onFrame(f *frame.Frame) {
	d.handle(f)
	d.hst.Pool().Put(f)
}

func (d *Device) handle(f *frame.Frame) {
	if f.Type != frame.TypeProfinet {
		return
	}
	id, err := profinet.PeekFrameID(f.Payload)
	if err != nil {
		return
	}
	switch id {
	case profinet.FrameIDConnectReq:
		req, err := profinet.UnmarshalConnectRequest(f.Payload)
		if err != nil {
			return
		}
		d.onConnect(f.Src, req)
	case profinet.FrameIDCyclic:
		cd, err := profinet.UnmarshalCyclicData(f.Payload)
		if err != nil {
			return
		}
		d.onCyclic(f.Src, cd)
	case profinet.FrameIDRelease:
		rel, err := profinet.UnmarshalRelease(f.Payload)
		if err != nil || rel.ARID != d.arid {
			return
		}
		d.teardown()
	}
}

func (d *Device) onConnect(src frame.MAC, req profinet.ConnectRequest) {
	busy := d.state != StateIdle && d.controller != src
	// A controller whose CR died (we are in failsafe) may be replaced:
	// accept a new controller when the old one is silent.
	if busy && d.state == StateFailsafe {
		busy = false
		d.teardown()
	}
	if busy {
		d.RejectedConnects++
		d.reply(src, profinet.ConnectResponse{ARID: req.ARID, Accepted: false, Reason: profinet.ReasonBusy}.Marshal())
		return
	}
	if req.CycleUS == 0 || req.WatchdogFactor == 0 {
		d.reply(src, profinet.ConnectResponse{ARID: req.ARID, Accepted: false, Reason: profinet.ReasonBadParameters}.Marshal())
		return
	}
	// (Re-)establish.
	if d.ticker != nil {
		d.ticker.Stop()
	}
	if d.watchdog != nil {
		d.watchdog.Stop()
	}
	d.controller = src
	d.arid = req.ARID
	d.cycle = req.Cycle()
	d.inputs = make([]byte, req.InputLen)
	d.outputs = make([]byte, req.OutputLen)
	// The safe image covers every output of this CR: the configured
	// state as far as it reaches, zero beyond.
	d.safe = make([]byte, req.OutputLen)
	copy(d.safe, d.safeConfig)
	d.counter = 0
	d.state = StateOperate
	d.watchdog = profinet.NewWatchdog(d.engine, d.cycle, int(req.WatchdogFactor), d.failsafe, d.recover)
	d.watchdog.Feed()
	d.ticker = d.engine.Every(d.engine.Now(), d.cycle, (*cycleEv)(d))
	d.reply(src, profinet.ConnectResponse{ARID: req.ARID, Accepted: true}.Marshal())
	if d.OnConnected != nil {
		d.OnConnected(req.ARID)
	}
}

// cycleEv is a device as the handler of its IO cycle ticks. Each sends
// one input frame, whatever the state — a failsafe device keeps
// publishing its sensor view, as real devices do, so a recovering
// controller can resynchronize.
type cycleEv Device

func (e *cycleEv) Fire() {
	d := (*Device)(e)
	d.process(d.engine.Now(), d.outputs, d.inputs)
	status := profinet.StatusValid
	if d.state == StateOperate {
		status |= profinet.StatusRun
	}
	cd := profinet.CyclicData{ARID: d.arid, CycleCounter: d.counter, Status: status, Data: d.inputs}
	d.counter++
	d.TxCyclic++
	if f := d.newFrame(d.controller, profinet.CyclicLen(len(d.inputs))); f != nil {
		cd.MarshalInto(f.Payload)
		d.send(f)
	}
}

func (d *Device) onCyclic(src frame.MAC, cd profinet.CyclicData) {
	if cd.ARID != d.arid || !cd.Valid() {
		return
	}
	// Outputs are accepted from whichever station currently speaks this
	// ARID: InstaPLC switches the upstream producer transparently, and
	// the device — like a real one keyed on frame id — does not care
	// which MAC the data comes from.
	_ = src
	d.RxCyclic++
	copy(d.outputs, cd.Data)
	d.OutputUpdates++
	if d.watchdog != nil {
		d.watchdog.Feed()
	}
}

// failsafe forces safe outputs and counts the event.
func (d *Device) failsafe() {
	d.state = StateFailsafe
	d.FailsafeEvents++
	copy(d.outputs, d.safe)
	if d.OnFailsafe != nil {
		d.OnFailsafe()
	}
	// Raise an alarm towards the (dead) controller; in-network
	// observers (InstaPLC) can see it even if the controller cannot.
	d.reply(d.controller, profinet.Alarm{ARID: d.arid, Code: profinet.AlarmWatchdogExpired}.Marshal())
}

// recover returns to operate when fresh output data arrives after a
// failsafe, announcing the return of the peer.
func (d *Device) recover() {
	d.state = StateOperate
	d.reply(d.controller, profinet.Alarm{ARID: d.arid, Code: profinet.AlarmReturnOfPeer}.Marshal())
}

func (d *Device) teardown() {
	if d.ticker != nil {
		d.ticker.Stop()
		d.ticker = nil
	}
	if d.watchdog != nil {
		d.watchdog.Stop()
		d.watchdog = nil
	}
	d.state = StateIdle
	d.controller = frame.MAC{}
	d.arid = 0
}

// newFrame takes an RT frame with an n-byte payload for dst from the
// pool, or returns nil when there is no one to address.
func (d *Device) newFrame(dst frame.MAC, n int) *frame.Frame {
	if dst == (frame.MAC{}) {
		return nil
	}
	return profinet.NewFrame(d.hst.Pool(), dst, n)
}

// send transmits f; a frame refused at the egress queue is still ours.
func (d *Device) send(f *frame.Frame) {
	if !d.hst.Send(f) {
		d.hst.Pool().Put(f)
	}
}

// reply sends an acyclic message (handshake, alarm, discovery).
func (d *Device) reply(dst frame.MAC, payload []byte) {
	if f := d.newFrame(dst, len(payload)); f != nil {
		copy(f.Payload, payload)
		d.send(f)
	}
}
