// Package mrp implements a Media-Redundancy-Protocol-style ring manager
// — the mechanism behind the "ring" in §2.3's line/ring/star/tree
// taxonomy of engineered OT topologies. A designated ring manager
// blocks one of its two ring ports so the physical loop is never a
// forwarding loop, circulates test frames in both directions, and when
// the tests stop returning (a ring link or switch died) it unblocks the
// standby port and floods a topology-change notice so switches flush
// their learned tables. Recovery is bounded by TestInterval ×
// TestTolerance — the engineered-failover property that lets a single
// cable cut anywhere in the ring go unnoticed by the control loops
// riding on it.
package mrp

import (
	"encoding/binary"
	"time"

	"steelnet/internal/frame"
	"steelnet/internal/sim"
	"steelnet/internal/simnet"
)

// TypeMRP is the real MRP EtherType.
const TypeMRP frame.EtherType = 0x88e3

// Frame subtypes.
const (
	msgTest           = 1
	msgTopologyChange = 2
)

// testMAC is the multicast group test frames travel on.
var testMAC = frame.MAC{0x01, 0x15, 0x4e, 0x00, 0x00, 0x01}

// RingState is the manager's view of the ring.
type RingState int

// Ring states.
const (
	// RingClosed: all links healthy; the standby port is blocked.
	RingClosed RingState = iota
	// RingOpen: a failure was detected; the standby port forwards.
	RingOpen
)

// String names the state.
func (s RingState) String() string {
	if s == RingClosed {
		return "closed"
	}
	return "open"
}

// Config parameterizes the manager.
type Config struct {
	// TestInterval is how often test frames circulate (MRP defaults
	// are 20 ms; fast profiles go to 1 ms).
	TestInterval time.Duration
	// TestTolerance is how many consecutive lost tests open the ring.
	TestTolerance int
}

// DefaultConfig recovers within ≈3×20 ms, like standard MRP.
var DefaultConfig = Config{TestInterval: 20 * time.Millisecond, TestTolerance: 3}

// Manager runs on one ring switch. ringA is kept forwarding, ringB is
// the blocked standby while the ring is closed.
type Manager struct {
	sw     *simnet.Switch
	engine *sim.Engine
	cfg    Config
	ringA  int
	ringB  int
	state  RingState
	seq    uint32
	seen   map[uint32]bool
	misses int
	ticker *sim.Ticker

	// OnStateChange fires when the ring opens or closes.
	OnStateChange func(RingState)
	// TestsSent/TestsReturned/Transitions count protocol activity.
	TestsSent, TestsReturned uint64
	Transitions              uint64
}

// Attach installs a ring manager on sw with ring ports a and b and
// starts the protocol: b is blocked, tests circulate.
func Attach(e *sim.Engine, sw *simnet.Switch, a, b int, cfg Config) *Manager {
	if cfg.TestInterval <= 0 {
		cfg.TestInterval = DefaultConfig.TestInterval
	}
	if cfg.TestTolerance < 1 {
		cfg.TestTolerance = DefaultConfig.TestTolerance
	}
	m := &Manager{sw: sw, engine: e, cfg: cfg, ringA: a, ringB: b, seen: make(map[uint32]bool)}
	sw.SetPortBlocked(b, true)
	sw.OnControlFrame = m.onControl
	m.ticker = e.Every(e.Now(), cfg.TestInterval, (*tickEv)(m))
	return m
}

// State returns the manager's ring state.
func (m *Manager) State() RingState { return m.state }

// Stop halts the protocol (leaves the current blocking state).
func (m *Manager) Stop() { m.ticker.Stop() }

// tickEv is a manager as the handler of its test rounds.
type tickEv Manager

func (e *tickEv) Fire() {
	m := (*Manager)(e)
	// Evaluate the previous round first: did last round's test return?
	if m.seq > 0 && !m.seen[m.seq-1] {
		m.misses++
		if m.state == RingClosed && m.misses >= m.cfg.TestTolerance {
			m.open()
		}
	} else if m.seq > 0 {
		m.misses = 0
		if m.state == RingOpen {
			// Tests flow again: the ring healed; close it back up.
			m.close()
		}
	}
	delete(m.seen, m.seq-1)
	// Send this round's test out both ring ports; it should circle the
	// ring and come back on the other one.
	payload := make([]byte, 7)
	payload[0] = msgTest
	binary.BigEndian.PutUint32(payload[1:], m.seq)
	for _, port := range []int{m.ringA, m.ringB} {
		m.sw.Port(port).Send(&frame.Frame{
			Dst: testMAC, Src: frame.NewMAC(0xffff0000 | uint32(m.ringA)),
			Tagged: true, Priority: frame.PrioNetControl, VID: 1,
			Type: TypeMRP, Payload: append([]byte(nil), payload...),
		})
	}
	m.TestsSent++
	m.seq++
}

func (m *Manager) onControl(port int, f *frame.Frame) bool {
	if f.Type != TypeMRP {
		return false
	}
	if len(f.Payload) < 5 || f.Payload[0] != msgTest {
		return true // consume malformed/other MRP frames
	}
	if port == m.ringA || port == m.ringB {
		seq := binary.BigEndian.Uint32(f.Payload[1:])
		if !m.seen[seq] {
			m.seen[seq] = true
			m.TestsReturned++
		}
	}
	return true
}

func (m *Manager) open() {
	m.state = RingOpen
	m.Transitions++
	m.sw.SetPortBlocked(m.ringB, false)
	m.topologyChange()
	if m.OnStateChange != nil {
		m.OnStateChange(RingOpen)
	}
}

func (m *Manager) close() {
	m.state = RingClosed
	m.Transitions++
	m.misses = 0
	m.sw.SetPortBlocked(m.ringB, true)
	m.topologyChange()
	if m.OnStateChange != nil {
		m.OnStateChange(RingClosed)
	}
}

// topologyChange flushes the local FIB and floods a notice so ring
// clients flush theirs. Clients handle it via Client below.
func (m *Manager) topologyChange() {
	m.sw.FlushDynamic()
	for _, port := range []int{m.ringA, m.ringB} {
		m.sw.Port(port).Send(&frame.Frame{
			Dst: testMAC, Src: frame.NewMAC(0xffff0000 | uint32(m.ringA)),
			Tagged: true, Priority: frame.PrioNetControl, VID: 1,
			Type: TypeMRP, Payload: []byte{msgTopologyChange},
		})
	}
}

// Client makes a non-manager ring switch MRP-aware: it passes ring test
// frames along the ring (even though its ports are never blocked) and
// flushes its FIB on topology changes.
type Client struct {
	sw    *simnet.Switch
	ringA int
	ringB int
	// Flushes counts topology-change flushes.
	Flushes uint64
}

// AttachClient installs ring-client behaviour on sw with the given ring
// ports.
func AttachClient(sw *simnet.Switch, a, b int) *Client {
	c := &Client{sw: sw, ringA: a, ringB: b}
	sw.OnControlFrame = c.onControl
	return c
}

func (c *Client) onControl(port int, f *frame.Frame) bool {
	if f.Type != TypeMRP {
		return false
	}
	// Pass ring control frames along the ring, bypassing blocking and
	// the FIB.
	out := c.ringA
	if port == c.ringA {
		out = c.ringB
	} else if port != c.ringB {
		return true // MRP from a non-ring port: consume
	}
	if len(f.Payload) >= 1 && f.Payload[0] == msgTopologyChange {
		c.sw.FlushDynamic()
		c.Flushes++
	}
	c.sw.Port(out).Send(f)
	return true
}
