package plc

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"steelnet/internal/frame"
	"steelnet/internal/host"
	"steelnet/internal/profinet"
	"steelnet/internal/sim"
	"steelnet/internal/simnet"
)

// ConnState tracks one communication relationship's lifecycle.
type ConnState int

// Connection states.
const (
	StateConnecting ConnState = iota
	StateRunning
	StatePeerLost
	StateRejected
)

// String names the state.
func (s ConnState) String() string {
	switch s {
	case StateConnecting:
		return "connecting"
	case StateRunning:
		return "running"
	case StatePeerLost:
		return "peer-lost"
	case StateRejected:
		return "rejected"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// ConnectSpec describes one device connection: the CR parameters plus
// where the device's IO maps into the controller's process image.
type ConnectSpec struct {
	Device    frame.MAC
	Req       profinet.ConnectRequest
	InOffset  int // device inputs land at Image.Inputs[InOffset:]
	OutOffset int // device outputs come from Image.Outputs[OutOffset:]
}

// deviceConn is the controller-side CR state. It is the handler of
// its IO cycle's scan-and-transmit; retryEv and cycleEv are it as the
// handlers of its connect retries and its cycle ticks.
type deviceConn struct {
	c        *Controller
	spec     ConnectSpec
	state    ConnState
	inputs   []byte
	counter  uint16
	lastRx   uint16
	watchdog *profinet.Watchdog
	ticker   *sim.Ticker
	retry    *sim.Ticker
}

type (
	retryEv deviceConn
	cycleEv deviceConn
)

func (conn *deviceConn) Fire() { conn.c.fireCycle(conn) }
func (e *cycleEv) Fire()       { e.c.cycleTick((*deviceConn)(e)) }

func (e *retryEv) Fire() {
	if c := e.c; !c.failed && e.state == StateConnecting {
		c.send(e.spec.Device, e.spec.Req.Marshal())
	}
}

// connectEv is a Connect scheduled by ConnectAt.
type connectEv struct {
	c    *Controller
	spec ConnectSpec
}

func (e *connectEv) Fire() { e.c.Connect(e.spec) }

// ControllerConfig parameterizes a controller.
type ControllerConfig struct {
	// Logic, when non-nil, runs every scan over the process image.
	Logic *ILProgram
	// ImageSize is the size of each process-image area in bytes.
	ImageSize int
	// Stack, when non-nil, makes this a virtual PLC: scan wakeups and
	// frame transmissions pay the host stack's scheduling noise and
	// kernel path (§2.1). Hardware PLCs leave it nil.
	Stack *host.Stack
	// Primary marks the cyclic frames with the redundancy-primary bit.
	Primary bool
}

// Controller is a (v)PLC in the PROFINET controller role: it owns the
// process image, runs the logic scan, and exchanges cyclic IO with one
// or more devices.
type Controller struct {
	name   string
	engine *sim.Engine
	hst    *simnet.Host
	cfg    ControllerConfig
	runner *Runner
	image  Image
	conns  map[uint32]*deviceConn
	failed bool
	txJobs *txJob // free list of kernel-path transmissions

	// OnConnected fires when a CR is accepted.
	OnConnected func(arid uint32)
	// OnRejected fires when a CR is refused.
	OnRejected func(arid uint32, reason uint8)
	// OnPeerLost fires when a device's watchdog expires.
	OnPeerLost func(arid uint32)

	// TxCyclic and RxCyclic count cyclic frames exchanged.
	TxCyclic, RxCyclic uint64
	// ScanCount counts completed logic scans.
	ScanCount uint64
}

// NewController builds a controller host.
func NewController(e *sim.Engine, name string, mac frame.MAC, cfg ControllerConfig) *Controller {
	if cfg.ImageSize <= 0 {
		cfg.ImageSize = 64
	}
	c := &Controller{
		name:   name,
		engine: e,
		hst:    simnet.NewHost(e, name, mac),
		cfg:    cfg,
		conns:  make(map[uint32]*deviceConn),
		image: Image{
			Inputs:  make([]byte, cfg.ImageSize),
			Outputs: make([]byte, cfg.ImageSize),
		},
	}
	if cfg.Logic != nil {
		c.runner = NewRunner(cfg.Logic)
	}
	c.hst.OnReceive(c.onFrame)
	return c
}

// Host returns the underlying simnet host for wiring.
func (c *Controller) Host() *simnet.Host { return c.hst }

// UsePool puts the controller on p, the free list it shares with the
// other stations of its cell (see simnet.Host.UsePool).
func (c *Controller) UsePool(p *frame.Pool) { c.hst.UsePool(p) }

// Image exposes the process image (HMI/test access).
func (c *Controller) Image() *Image { return &c.image }

// State returns the CR state for arid, or StateConnecting when unknown.
func (c *Controller) State(arid uint32) ConnState {
	if conn, ok := c.conns[arid]; ok {
		return conn.state
	}
	return StateConnecting
}

// Inputs returns the latest input data from the device on arid.
func (c *Controller) Inputs(arid uint32) []byte {
	if conn, ok := c.conns[arid]; ok {
		return append([]byte(nil), conn.inputs...)
	}
	return nil
}

// Connect establishes a CR per spec, retrying the request every 100 ms
// until the device answers.
func (c *Controller) Connect(spec ConnectSpec) {
	conn := &deviceConn{c: c, spec: spec, state: StateConnecting, inputs: make([]byte, spec.Req.InputLen)}
	c.conns[spec.Req.ARID] = conn
	conn.retry = c.engine.Every(c.engine.Now(), 100*time.Millisecond, (*retryEv)(conn))
}

// ConnectAt calls Connect(spec) at instant at.
func (c *Controller) ConnectAt(at sim.Time, spec ConnectSpec) {
	c.engine.Schedule(at, &connectEv{c: c, spec: spec})
}

// send transmits an acyclic PROFINET message (handshake, discovery).
func (c *Controller) send(dst frame.MAC, payload []byte) {
	f := profinet.NewFrame(c.hst.Pool(), dst, len(payload))
	copy(f.Payload, payload)
	c.transmit(f)
}

// txJob carries one frame across the vPLC's kernel transmit path. It
// is the handler of the path's end and recycles through a free list.
type txJob struct {
	c    *Controller
	f    *frame.Frame
	next *txJob
}

func (j *txJob) Fire() { j.c.kernelTxDone(j) }

// transmit puts f on the wire, paying the vPLC kernel path when
// configured. A frame the controller cannot send (it crashed meanwhile,
// or the egress queue refused it) goes back to the pool.
func (c *Controller) transmit(f *frame.Frame) {
	if c.cfg.Stack == nil {
		c.hostSend(f)
		return
	}
	j := c.txJobs
	if j == nil {
		j = &txJob{c: c}
	} else {
		c.txJobs = j.next
	}
	j.f = f
	c.engine.After(c.cfg.Stack.FullKernelTx(len(f.Payload)+18), j)
}

func (c *Controller) kernelTxDone(j *txJob) {
	f := j.f
	j.f, j.next = nil, c.txJobs
	c.txJobs = j
	if c.failed {
		c.hst.Pool().Put(f)
		return
	}
	c.hostSend(f)
}

func (c *Controller) hostSend(f *frame.Frame) {
	if !c.hst.Send(f) {
		c.hst.Pool().Put(f)
	}
}

// onFrame is the terminal consumer of every frame the host delivers:
// the handlers copy what they keep, so the frame returns to the pool.
func (c *Controller) onFrame(f *frame.Frame) {
	c.handle(f)
	c.hst.Pool().Put(f)
}

func (c *Controller) handle(f *frame.Frame) {
	if c.failed || f.Type != frame.TypeProfinet {
		return
	}
	id, err := profinet.PeekFrameID(f.Payload)
	if err != nil {
		return
	}
	switch id {
	case profinet.FrameIDConnectResp:
		resp, err := profinet.UnmarshalConnectResponse(f.Payload)
		if err != nil {
			return
		}
		c.onConnectResp(resp)
	case profinet.FrameIDCyclic:
		cd, err := profinet.UnmarshalCyclicData(f.Payload)
		if err != nil {
			return
		}
		c.onCyclic(cd)
	case profinet.FrameIDAlarm:
		// Alarms are surfaced through OnPeerLost when relevant; other
		// alarm handling is device-specific and out of scope here.
	}
}

func (c *Controller) onConnectResp(resp profinet.ConnectResponse) {
	conn, ok := c.conns[resp.ARID]
	if !ok || conn.state != StateConnecting {
		return
	}
	conn.retry.Stop()
	if !resp.Accepted {
		conn.state = StateRejected
		if c.OnRejected != nil {
			c.OnRejected(resp.ARID, resp.Reason)
		}
		return
	}
	conn.state = StateRunning
	cycle := conn.spec.Req.Cycle()
	arid := resp.ARID
	conn.watchdog = profinet.NewWatchdog(c.engine, cycle, int(conn.spec.Req.WatchdogFactor), func() {
		conn.state = StatePeerLost
		if c.OnPeerLost != nil {
			c.OnPeerLost(arid)
		}
	}, func() {
		conn.state = StateRunning
	})
	conn.watchdog.Feed()
	conn.ticker = c.engine.Every(c.engine.Now(), cycle, (*cycleEv)(conn))
	if c.OnConnected != nil {
		c.OnConnected(arid)
	}
}

// cycleTick is one IO cycle: run the scan, emit outputs.
func (c *Controller) cycleTick(conn *deviceConn) {
	if c.failed || conn.state == StateRejected {
		return
	}
	if c.cfg.Stack != nil {
		// vPLC: the scan task wakes up late by the host's scheduling
		// noise before it can transmit.
		c.engine.After(c.cfg.Stack.SchedulingNoise(), conn)
		return
	}
	c.fireCycle(conn)
}

// fireCycle scans and encodes the CR's slice of the output image
// straight into a pooled frame.
func (c *Controller) fireCycle(conn *deviceConn) {
	if c.failed {
		return
	}
	c.scan()
	status := profinet.StatusRun | profinet.StatusValid
	if c.cfg.Primary {
		status |= profinet.StatusPrimary
	}
	cd := profinet.CyclicData{
		ARID:         conn.spec.Req.ARID,
		CycleCounter: conn.counter,
		Status:       status,
		Data:         c.image.Outputs[conn.spec.OutOffset : conn.spec.OutOffset+int(conn.spec.Req.OutputLen)],
	}
	conn.counter++
	c.TxCyclic++
	f := profinet.NewFrame(c.hst.Pool(), conn.spec.Device, profinet.CyclicLen(len(cd.Data)))
	cd.MarshalInto(f.Payload)
	c.transmit(f)
}

// scan runs the logic once over the process image.
func (c *Controller) scan() {
	if c.runner == nil {
		return
	}
	if err := c.runner.Scan(c.image, time.Duration(c.engine.Now())); err != nil {
		panic(err) // logic addressing errors are programming bugs
	}
	c.ScanCount++
}

func (c *Controller) onCyclic(cd profinet.CyclicData) {
	conn, ok := c.conns[cd.ARID]
	if !ok || conn.state == StateConnecting || conn.state == StateRejected {
		return
	}
	if !cd.Valid() {
		return
	}
	c.RxCyclic++
	conn.lastRx = cd.CycleCounter
	copy(conn.inputs, cd.Data)
	copy(c.image.Inputs[conn.spec.InOffset:], cd.Data)
	if conn.watchdog != nil {
		conn.watchdog.Feed()
	}
}

// Fail simulates an abrupt controller crash (VM kill): all traffic
// stops instantly, with no goodbye. Fig. 5's "vPLC1 stops".
func (c *Controller) Fail() {
	c.failed = true
	for _, conn := range c.conns {
		if conn.ticker != nil {
			conn.ticker.Stop()
		}
		if conn.retry != nil {
			conn.retry.Stop()
		}
		if conn.watchdog != nil {
			conn.watchdog.Stop()
		}
	}
}

// Failed reports whether Fail was called.
func (c *Controller) Failed() bool { return c.failed }

// Restart brings a failed controller back: state is cold (process image
// cleared, like a rebooted VM) and every configured CR is re-established
// from scratch.
func (c *Controller) Restart() {
	if !c.failed {
		return
	}
	c.failed = false
	for i := range c.image.Inputs {
		c.image.Inputs[i] = 0
	}
	for i := range c.image.Outputs {
		c.image.Outputs[i] = 0
	}
	// In ARID order: the retry tickers of one instant take their seqs
	// in the order they connect, so map order would not replay.
	old := c.conns
	c.conns = make(map[uint32]*deviceConn)
	for _, arid := range slices.Sorted(maps.Keys(old)) {
		c.Connect(old[arid].spec)
	}
}
