package simnet

import (
	"fmt"

	"steelnet/internal/frame"
	"steelnet/internal/sim"
)

// Shaper gates when a queued frame may begin transmission. GateSchedule
// (802.1Qbv time-aware shaping) and CreditShaper (802.1Qav credit-based
// shaping) both implement it; ports accept either.
type Shaper interface {
	// NextEligible returns the earliest time >= now at which a frame of
	// priority p needing ser of wire time may start. ok=false means the
	// frame can never be sent (drop).
	NextEligible(now sim.Time, p frame.PCP, ser sim.Duration) (start sim.Time, ok bool)
	// OnTransmit informs the shaper that a frame of priority p and
	// wireLen bytes started transmitting at t for ser.
	OnTransmit(t sim.Time, p frame.PCP, wireLen int, ser sim.Duration)
}

// NextEligible implements Shaper for the TAS gate schedule.
func (g *GateSchedule) NextEligible(now sim.Time, p frame.PCP, ser sim.Duration) (sim.Time, bool) {
	return g.NextOpen(now, p, ser)
}

// OnTransmit implements Shaper (gates carry no per-frame state).
func (g *GateSchedule) OnTransmit(sim.Time, frame.PCP, int, sim.Duration) {}

// CreditShaper is an 802.1Qav-style credit-based shaper for one
// priority class: the class's long-term rate is bounded by IdleSlope.
// This implementation uses the conservative no-positive-credit variant:
// credit never rises above zero, so shaped frames are spaced at least
// wireBits/IdleSlope apart — a strict rate limit rather than Qav's
// bounded burst. Audio/video bridging uses CBS for streams that must
// not starve control traffic; in converged factories it bounds the ML
// class the same way (§5).
type CreditShaper struct {
	// Class is the shaped priority; other priorities pass unshaped.
	Class frame.PCP
	// IdleSlopeBps is the class's guaranteed (and maximum) rate.
	IdleSlopeBps float64

	credit     float64 // bits, always <= 0
	lastUpdate sim.Time
}

// NewCreditShaper builds a shaper for class at idleSlopeBps.
func NewCreditShaper(class frame.PCP, idleSlopeBps float64) *CreditShaper {
	if idleSlopeBps <= 0 {
		panic(fmt.Sprintf("simnet: non-positive idle slope %v", idleSlopeBps))
	}
	return &CreditShaper{Class: class, IdleSlopeBps: idleSlopeBps}
}

func (c *CreditShaper) replenish(now sim.Time) {
	if now <= c.lastUpdate {
		return
	}
	dt := now.Sub(c.lastUpdate).Seconds()
	c.credit += float64(c.IdleSlopeBps * dt)
	if c.credit > 0 {
		c.credit = 0
	}
	c.lastUpdate = now
}

// NextEligible implements Shaper.
func (c *CreditShaper) NextEligible(now sim.Time, p frame.PCP, _ sim.Duration) (sim.Time, bool) {
	if p != c.Class {
		return now, true
	}
	c.replenish(now)
	if c.credit >= 0 {
		return now, true
	}
	wait := sim.Duration(-c.credit / c.IdleSlopeBps * 1e9)
	if wait < 1 {
		wait = 1
	}
	return now.Add(wait), true
}

// OnTransmit implements Shaper: transmitting consumes the frame's bits
// net of the idle-slope accrual during serialization.
func (c *CreditShaper) OnTransmit(t sim.Time, p frame.PCP, wireLen int, ser sim.Duration) {
	if p != c.Class {
		return
	}
	c.replenish(t)
	c.credit -= float64(wireLen*8) - float64(c.IdleSlopeBps*ser.Seconds())
	c.lastUpdate = t.Add(ser)
}
