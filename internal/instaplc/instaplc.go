// Package instaplc implements InstaPLC (§4): an in-network application
// on the programmable data plane that gives redundant virtual PLCs
// seamless high availability without dedicated synchronization links.
//
// The first vPLC that connects to an I/O device becomes its primary;
// InstaPLC observes the connect handshake and builds a digital twin of
// the device (the CR parameters). A second vPLC connecting to the same
// device is designated secondary and unknowingly talks to the twin:
// its connect request is answered by InstaPLC impersonating the device.
// In steady state the data plane enforces the paper's four rules:
//
//  1. frames from the twin to the secondary are generated in-network
//     (the device's real input frames are mirrored, so no distinct twin
//     traffic needs to be dropped at the secondary);
//  2. frames from the secondary are absorbed by the twin (dropped and
//     counted at the switch);
//  3. frames from the physical device are forwarded to both vPLCs, so
//     both know the exact I/O state — the secondary's copy has its AR
//     id rewritten at egress so its stack accepts it;
//  4. frames from the primary go straight to the device.
//
// A data-plane idle timeout on the primary's cyclic entry acts as the
// watchdog: when the primary falls silent for the configured number of
// I/O cycles, the pipeline swaps rules (2) and (4) — the secondary's
// frames, AR-id-rewritten, now reach the device — completing the
// switchover entirely in the data plane, well inside the device's own
// watchdog budget.
package instaplc

import (
	"fmt"
	"time"

	"steelnet/internal/dataplane"
	"steelnet/internal/frame"
	"steelnet/internal/profinet"
	"steelnet/internal/sim"
)

// Role labels a controller's place in a cell.
type Role int

// Roles.
const (
	RoleNone Role = iota
	RolePrimary
	RoleSecondary
)

// String names the role.
func (r Role) String() string {
	switch r {
	case RolePrimary:
		return "primary"
	case RoleSecondary:
		return "secondary"
	}
	return "none"
}

// Twin is the digital twin of one I/O device: the CR parameters
// extracted from the observed connect handshake plus the freshest
// cyclic input data seen from the physical device.
type Twin struct {
	Device    frame.MAC
	Req       profinet.ConnectRequest // primary's CR parameters
	LastInput []byte
	LastSeen  sim.Time
}

// controllerRef is one vPLC as seen by the switch.
type controllerRef struct {
	mac  frame.MAC
	port int
	arid uint32
}

// cell tracks one I/O device and its (up to two) controllers.
type cell struct {
	device     frame.MAC
	devicePort int // -1 until learned
	twin       Twin
	primary    *controllerRef
	secondary  *controllerRef
	switched   bool
	absorbed   uint64 // cumulative twin-absorbed frames across reinstalls

	entMirror *dataplane.Entry // device -> both vPLCs
	entActive *dataplane.Entry // active vPLC -> device (with watchdog)
	entAbsorb *dataplane.Entry // standby vPLC -> twin (drop)
}

// INTFlowID is the flow label InstaPLC stamps on sourced INT stacks.
// One shared flow across all ingress ports keeps the sink-side sequence
// space continuous across a failover, which is exactly what lets the
// collector's path-change detector measure the switchover gap.
const INTFlowID uint32 = 1

// Config parameterizes the app.
type Config struct {
	// WatchdogCycles is the number of silent I/O cycles after which the
	// data plane fails over. It must undercut the device's own watchdog
	// factor for a seamless switchover.
	WatchdogCycles int

	// INT enables in-band telemetry: every frame entering the pipeline's
	// fast path is INT-sourced (labeled by ingress port), transit-stamped,
	// and sunk at egress into INTSink — the vPLC pair's failover becomes
	// observable through the data plane itself.
	INT bool
	// INTSink receives terminated stacks at pipeline egress. Required
	// when INT is set.
	INTSink dataplane.INTCollector
}

// DefaultConfig fails over after 2 silent cycles (device watchdogs are
// typically 3+).
var DefaultConfig = Config{WatchdogCycles: 2}

// App is the InstaPLC control plane bound to one pipeline.
type App struct {
	engine *sim.Engine
	pl     *dataplane.Pipeline
	table  *dataplane.Table
	cfg    Config

	macPort map[frame.MAC]int // learned station locations
	cells   map[frame.MAC]*cell

	// OnSwitchover fires when a cell fails over, with the device and
	// the promoted controller.
	OnSwitchover func(device, promoted frame.MAC)

	// Switchovers counts completed failovers; AbsorbedFrames counts
	// secondary frames consumed by twins.
	Switchovers uint64
}

// New attaches an InstaPLC app to pipeline pl. The app owns the
// pipeline's table layout and packet-in handler.
func New(engine *sim.Engine, pl *dataplane.Pipeline, cfg Config) *App {
	if cfg.WatchdogCycles < 1 {
		cfg.WatchdogCycles = DefaultConfig.WatchdogCycles
	}
	a := &App{
		engine:  engine,
		pl:      pl,
		cfg:     cfg,
		macPort: make(map[frame.MAC]int),
		cells:   make(map[frame.MAC]*cell),
	}
	if cfg.INT && cfg.INTSink != nil {
		// The source table runs before the app's own table so every
		// fast-path frame carries a stack from its first instant in the
		// pipeline. Non-strict: telemetry must never cost a frame here.
		pl.AddTable("int-source", dataplane.INTSource(INTFlowID))
	}
	a.table = pl.AddTable("instaplc", dataplane.PacketIn())
	pl.OnPacketIn = a.packetIn
	return a
}

// intSink returns the egress sink for installed legs (nil when INT is
// off, which makes the PortAction field a no-op).
func (a *App) intSink() dataplane.INTCollector {
	if !a.cfg.INT {
		return nil
	}
	return a.cfg.INTSink
}

// Role reports the role of the controller mac for device dev.
func (a *App) Role(dev, mac frame.MAC) Role {
	c, ok := a.cells[dev]
	if !ok {
		return RoleNone
	}
	pri, sec := c.primary, c.secondary
	if c.switched {
		pri, sec = sec, pri
	}
	if pri != nil && pri.mac == mac {
		return RolePrimary
	}
	if sec != nil && sec.mac == mac {
		return RoleSecondary
	}
	return RoleNone
}

// TwinOf returns the digital twin for device dev.
func (a *App) TwinOf(dev frame.MAC) (Twin, bool) {
	c, ok := a.cells[dev]
	if !ok {
		return Twin{}, false
	}
	return c.twin, true
}

// AbsorbedFrames returns how many secondary frames the twin of dev has
// absorbed in the data plane.
func (a *App) AbsorbedFrames(dev frame.MAC) uint64 {
	c, ok := a.cells[dev]
	if !ok {
		return 0
	}
	n := c.absorbed
	if c.entAbsorb != nil {
		n += c.entAbsorb.Hits
	}
	return n
}

// packetIn is the control-plane slow path: learning, handshakes, and
// any traffic with no installed entry. The app owns every punted frame:
// it either goes back into the pipeline or returns to the pool here.
func (a *App) packetIn(ev dataplane.PacketInEvent) {
	a.macPort[ev.Fields.Src] = ev.Fields.InPort
	if !a.handlePacketIn(ev) {
		a.pl.Pool().Put(ev.Frame)
	}
}

// handlePacketIn reports whether it passed ev.Frame on.
func (a *App) handlePacketIn(ev dataplane.PacketInEvent) bool {
	if !ev.Fields.PNValid {
		return a.slowForward(ev)
	}
	switch ev.Fields.FrameID {
	case profinet.FrameIDConnectReq:
		req, err := profinet.UnmarshalConnectRequest(ev.Frame.Payload)
		if err != nil {
			return false
		}
		return a.onConnectReq(ev, req)
	case profinet.FrameIDConnectResp:
		resp, err := profinet.UnmarshalConnectResponse(ev.Frame.Payload)
		if err != nil {
			return false
		}
		return a.onConnectResp(ev, resp)
	case profinet.FrameIDCyclic:
		return a.onSlowCyclic(ev)
	default:
		return a.slowForward(ev)
	}
}

// slowForward delivers a frame by learned port, or floods copies of it.
func (a *App) slowForward(ev dataplane.PacketInEvent) bool {
	if port, ok := a.macPort[ev.Frame.Dst]; ok {
		a.pl.Inject(port, ev.Frame)
		return true
	}
	for i := 0; i < a.pl.NumPorts(); i++ {
		if i != ev.Fields.InPort {
			a.pl.Inject(i, a.pl.Pool().Clone(ev.Frame))
		}
	}
	return false
}

func (a *App) onConnectReq(ev dataplane.PacketInEvent, req profinet.ConnectRequest) bool {
	dev := ev.Frame.Dst
	c, ok := a.cells[dev]
	if !ok {
		c = &cell{device: dev, devicePort: -1}
		a.cells[dev] = c
	}
	ref := &controllerRef{mac: ev.Fields.Src, port: ev.Fields.InPort, arid: req.ARID}
	switch {
	case c.primary == nil || c.primary.mac == ref.mac:
		// First controller (or a retry): designate primary, record the
		// twin's CR parameters, forward to the device.
		c.primary = ref
		c.twin = Twin{Device: dev, Req: req}
		return a.slowForward(ev)
	case c.secondary == nil || c.secondary.mac == ref.mac:
		// Second controller: designate secondary; the twin answers the
		// handshake itself — the device never sees this request.
		c.secondary = ref
		a.answerAs(dev, ref, profinet.ConnectResponse{ARID: req.ARID, Accepted: true})
		a.installEntries(c)
	default:
		// A third controller: refuse, as a busy device would.
		a.answerAs(dev, ref, profinet.ConnectResponse{ARID: req.ARID, Accepted: false, Reason: profinet.ReasonBusy})
	}
	return false
}

// answerAs sends resp to controller ref with the device's address as
// source: the twin (or a busy device) speaking.
func (a *App) answerAs(dev frame.MAC, ref *controllerRef, resp profinet.ConnectResponse) {
	payload := resp.Marshal()
	f := profinet.NewFrame(a.pl.Pool(), ref.mac, len(payload))
	copy(f.Payload, payload)
	f.Src = dev
	a.pl.Inject(ref.port, f)
}

func (a *App) onConnectResp(ev dataplane.PacketInEvent, resp profinet.ConnectResponse) bool {
	// A response from the physical device: learn its port, forward to
	// the primary, and bring up the fast path.
	c, ok := a.cells[ev.Fields.Src]
	if !ok || c.primary == nil {
		return a.slowForward(ev)
	}
	c.devicePort = ev.Fields.InPort
	a.pl.Inject(c.primary.port, ev.Frame)
	if resp.Accepted {
		a.installEntries(c)
	}
	return true
}

// onSlowCyclic handles cyclic frames before entries exist (transients).
func (a *App) onSlowCyclic(ev dataplane.PacketInEvent) bool {
	for _, c := range a.cells {
		if ev.Fields.Src == c.device {
			c.devicePort = ev.Fields.InPort
			a.observeInput(c, ev.Frame)
			if c.primary == nil {
				return false
			}
			a.pl.Inject(c.primary.port, ev.Frame)
			return true
		}
		if c.primary != nil && ev.Fields.Src == c.primary.mac && c.devicePort >= 0 {
			a.pl.Inject(c.devicePort, ev.Frame)
			return true
		}
	}
	// Unknown cyclic traffic: treat like any other frame.
	return a.slowForward(ev)
}

// observeInput refreshes the twin's input image from a device frame.
func (a *App) observeInput(c *cell, f *frame.Frame) {
	if cd, err := profinet.UnmarshalCyclicData(f.Payload); err == nil {
		c.twin.LastInput = append(c.twin.LastInput[:0], cd.Data...)
		c.twin.LastSeen = a.engine.Now()
	}
}

// installEntries (re)builds the cell's fast-path entries to match its
// current membership and switchover state.
func (a *App) installEntries(c *cell) {
	if c.devicePort < 0 || c.primary == nil {
		return // device location still unknown; stay on slow path
	}
	if c.entAbsorb != nil {
		c.absorbed += c.entAbsorb.Hits
	}
	for _, e := range []*dataplane.Entry{c.entMirror, c.entActive, c.entAbsorb} {
		if e != nil {
			a.table.Delete(e)
		}
	}
	c.entMirror, c.entActive, c.entAbsorb = nil, nil, nil

	active, standby := c.primary, c.secondary
	if c.switched {
		active, standby = c.secondary, c.primary
	}

	// Rule 3: device inputs to both controllers; the standby's copy is
	// retargeted (dst MAC + AR id) so its stack accepts it as its own CR.
	// INT stacks terminate at egress — hosts never see telemetry bytes.
	sink := a.intSink()
	legs := []dataplane.PortAction{{Port: active.port, SetARID: &active.arid, SetDst: &active.mac, INTSink: sink}}
	if standby != nil {
		legs = append(legs, dataplane.PortAction{Port: standby.port, SetARID: &standby.arid, SetDst: &standby.mac, INTSink: sink})
	}
	c.entMirror = a.table.Insert(dataplane.Entry{
		Priority: 100,
		Match: dataplane.Match{
			InPort:  &c.devicePort,
			FrameID: dataplane.Ptr(profinet.FrameIDCyclic),
		},
		Action: dataplane.Action{Kind: dataplane.ActOutput, Outputs: legs},
		// Clone-to-CPU keeps the twin's input image fresh without
		// slowing the fast path ("continuously monitors packets in the
		// data plane", §4).
		OnMatch: func(_ *dataplane.Entry, f *frame.Frame) { a.observeInput(c, f) },
	})

	// Rule 4: the active controller's outputs go to the device, with
	// the AR id the device expects (the original primary's). The idle
	// timeout on this entry is the data-plane watchdog.
	cycle := c.twin.Req.Cycle()
	if cycle <= 0 {
		cycle = time.Millisecond
	}
	c.entActive = a.table.Insert(dataplane.Entry{
		Priority: 100,
		Match: dataplane.Match{
			InPort:  &active.port,
			Src:     &active.mac,
			FrameID: dataplane.Ptr(profinet.FrameIDCyclic),
		},
		Action: dataplane.Action{Kind: dataplane.ActOutput, Outputs: []dataplane.PortAction{
			{Port: c.devicePort, SetARID: &c.twin.Req.ARID, SetDst: &c.device, INTSink: sink},
		}},
		IdleTimeout: time.Duration(a.cfg.WatchdogCycles) * cycle,
		OnIdle:      func(*dataplane.Entry) { a.switchover(c) },
	})

	// Rule 2: the standby's outputs are absorbed by the twin.
	if standby != nil {
		c.entAbsorb = a.table.Insert(dataplane.Entry{
			Priority: 100,
			Match: dataplane.Match{
				InPort:  &standby.port,
				Src:     &standby.mac,
				FrameID: dataplane.Ptr(profinet.FrameIDCyclic),
			},
			Action: dataplane.Drop(),
		})
	}
}

// PlannedSwitchover hands control of device dev from the active to the
// standby controller without any failure — the interruption-free vPLC
// migration of [73] (P4PLC): because the standby already tracks the
// device state through the mirror rule, the swap is one table update
// and costs no IO cycles at all. It returns false when the device is
// unknown or has no standby.
func (a *App) PlannedSwitchover(dev frame.MAC) bool {
	c, ok := a.cells[dev]
	if !ok {
		return false
	}
	standby := c.secondary
	if c.switched {
		standby = c.primary
	}
	if standby == nil || c.devicePort < 0 {
		return false
	}
	a.switchover(c)
	return true
}

// switchover promotes the standby in the data plane.
func (a *App) switchover(c *cell) {
	standby := c.secondary
	if c.switched {
		standby = c.primary
	}
	if standby == nil {
		return // no one to promote; the device will failsafe like today
	}
	c.switched = !c.switched
	a.Switchovers++
	a.installEntries(c)
	if a.OnSwitchover != nil {
		a.OnSwitchover(c.device, standby.mac)
	}
}

// String summarizes the app state.
func (a *App) String() string {
	return fmt.Sprintf("instaplc(%d cells, %d switchovers)", len(a.cells), a.Switchovers)
}
