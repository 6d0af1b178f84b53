package plc

import (
	"time"

	"steelnet/internal/frame"
	"steelnet/internal/sim"
	"steelnet/internal/simnet"
)

// RedundantPair is the classic hardware-style HA baseline §4 describes:
// an active primary and a passive standby coupled by a dedicated sync
// link carrying heartbeats and state. When the standby misses
// HeartbeatMiss heartbeats it promotes itself after SwitchoverDelay —
// the 50–300 ms figure the paper cites for S7-1500R/H-class systems
// [98]. Contrast with InstaPLC, which needs no dedicated link and
// switches in the data plane within a watchdog window.
type RedundantPair struct {
	engine  *sim.Engine
	Primary *Controller
	Standby *Controller

	cfg        RedundancyConfig
	syncA      *simnet.Host // primary's sync-link endpoint
	syncB      *simnet.Host // standby's sync-link endpoint
	hbTicker   *sim.Ticker
	hbWatch    sim.Event
	promoted   bool
	promotedAt sim.Time

	// HeartbeatsSent and HeartbeatsSeen count sync-link traffic.
	HeartbeatsSent, HeartbeatsSeen uint64
}

// RedundancyConfig parameterizes the pair.
type RedundancyConfig struct {
	// HeartbeatEvery is the sync-link heartbeat period.
	HeartbeatEvery time.Duration
	// HeartbeatMiss is how many consecutive missed heartbeats the
	// standby tolerates before promoting.
	HeartbeatMiss int
	// SwitchoverDelay is the time the standby needs to take over after
	// deciding to (state loading, output enabling) — 50-300 ms for
	// hardware pairs.
	SwitchoverDelay time.Duration
	// Specs are the device connections the active controller maintains;
	// on promotion the standby connects to the same devices.
	Specs []ConnectSpec
}

// DefaultRedundancyConfig matches a mid-range hardware pair.
var DefaultRedundancyConfig = RedundancyConfig{
	HeartbeatEvery:  10 * time.Millisecond,
	HeartbeatMiss:   3,
	SwitchoverDelay: 150 * time.Millisecond,
}

// NewRedundantPair wires primary and standby with a dedicated 1 Gb/s
// sync link (the special hardware requirement InstaPLC removes).
func NewRedundantPair(e *sim.Engine, primary, standby *Controller, cfg RedundancyConfig) *RedundantPair {
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = DefaultRedundancyConfig.HeartbeatEvery
	}
	if cfg.HeartbeatMiss < 1 {
		cfg.HeartbeatMiss = DefaultRedundancyConfig.HeartbeatMiss
	}
	if cfg.SwitchoverDelay <= 0 {
		cfg.SwitchoverDelay = DefaultRedundancyConfig.SwitchoverDelay
	}
	p := &RedundantPair{
		engine:  e,
		Primary: primary,
		Standby: standby,
		cfg:     cfg,
		syncA:   simnet.NewHost(e, primary.name+"-sync", frame.NewMAC(0xff00)),
		syncB:   simnet.NewHost(e, standby.name+"-sync", frame.NewMAC(0xff01)),
	}
	simnet.Connect(e, "plc-sync", p.syncA.Port(), p.syncB.Port(), 1e9, 500*sim.Nanosecond)
	p.syncB.OnReceive(func(f *frame.Frame) {
		p.HeartbeatsSeen++
		p.armWatch()
		p.Standby.hst.Pool().Put(f)
	})
	return p
}

// Start begins operation: the primary connects to all devices and
// heartbeats flow on the sync link.
func (p *RedundantPair) Start() {
	for _, spec := range p.cfg.Specs {
		p.Primary.Connect(spec)
	}
	p.hbTicker = p.engine.Every(p.engine.Now(), p.cfg.HeartbeatEvery, func() {
		if p.Primary.Failed() {
			return
		}
		p.HeartbeatsSent++
		f := p.Primary.hst.Pool().Get(2)
		f.Dst, f.Type = p.syncB.MAC(), frame.TypeProfinet
		f.Payload[0], f.Payload[1] = 0xbe, 0xa7
		if !p.syncA.Send(f) {
			p.Primary.hst.Pool().Put(f)
		}
	})
	p.armWatch()
}

func (p *RedundantPair) armWatch() {
	if p.promoted {
		return
	}
	p.hbWatch.Cancel()
	timeout := time.Duration(p.cfg.HeartbeatMiss) * p.cfg.HeartbeatEvery
	p.hbWatch = p.engine.After(timeout, p.promote)
}

// promote switches the standby to active after the switchover delay.
func (p *RedundantPair) promote() {
	if p.promoted {
		return
	}
	p.promoted = true
	p.engine.After(p.cfg.SwitchoverDelay, func() {
		p.promotedAt = p.engine.Now()
		for _, spec := range p.cfg.Specs {
			// The standby opens fresh CRs with its own ARIDs offset to
			// avoid clashing with the dead primary's.
			s := spec
			s.Req.ARID += 1 << 16
			p.Standby.Connect(s)
		}
	})
}

// Promoted reports whether the standby has taken over, and when it
// finished doing so (zero until then).
func (p *RedundantPair) Promoted() (bool, sim.Time) { return p.promoted, p.promotedAt }

// Stop halts heartbeats and the promotion watch.
func (p *RedundantPair) Stop() {
	if p.hbTicker != nil {
		p.hbTicker.Stop()
	}
	p.hbWatch.Cancel()
}
