// Package clock models the timestamping hardware the Traffic Reflection
// method reasons about (§3): free-running device clocks with frequency
// drift, clocks a PTP servo steps and retunes, and quantized capture
// timestamps such as the network tap's 8 ns resolution. The method's
// core point — both tap timestamps come from a single clock, so drift
// between clocks cancels out of the delay measurement — is directly
// expressible with these types.
package clock

import (
	"time"

	"steelnet/internal/sim"
)

// Clock converts virtual simulation time into the time a device would
// report. Implementations must be deterministic given their construction
// parameters.
type Clock interface {
	// Read returns the device's view of the instant now.
	Read(now sim.Time) int64
}

// Perfect is an ideal clock: reads equal true time plus a fixed offset.
type Perfect struct {
	Offset time.Duration
}

// Read implements Clock.
func (p Perfect) Read(now sim.Time) int64 { return int64(now) + int64(p.Offset) }

// Drifting is a free-running oscillator with a constant frequency error.
// DriftPPM is parts-per-million: +50 means the clock gains 50 µs per
// second of true time. Commodity crystals are ±20..100 ppm; this is why
// two-clock measurements accumulate error and the tap's one-clock design
// matters.
type Drifting struct {
	Offset   time.Duration
	DriftPPM float64
}

// Read implements Clock.
func (d Drifting) Read(now sim.Time) int64 {
	drift := float64(now) * d.DriftPPM / 1e6
	return int64(now) + int64(d.Offset) + int64(drift)
}

// Adjustable is a piecewise-linear clock whose frequency error and
// phase can be changed mid-run — the target of fault-injected drift and
// step events (internal/faults). Between adjustments it behaves like
// Drifting; each adjustment rebaselines the accumulated reading so the
// clock stays continuous across a drift change and jumps exactly delta
// across a step. Adjustment instants must be non-decreasing (they come
// from engine-scheduled events, so they are).
type Adjustable struct {
	base  sim.Time // instant of the last adjustment
	acc   int64    // reading at base
	drift float64  // current frequency error, ppm
}

// NewAdjustable builds an adjustable clock reading offset at time zero
// with an initial frequency error of ppm.
func NewAdjustable(offset time.Duration, ppm float64) *Adjustable {
	return &Adjustable{acc: int64(offset), drift: ppm}
}

// Read implements Clock.
func (a *Adjustable) Read(now sim.Time) int64 {
	dt := int64(now) - int64(a.base)
	return a.acc + dt + int64(float64(dt)*a.drift/1e6)
}

// SetDriftPPM changes the clock's frequency error at instant now,
// keeping the reading continuous.
func (a *Adjustable) SetDriftPPM(now sim.Time, ppm float64) {
	a.rebase(now)
	a.drift = ppm
}

// Step jumps the clock's reading by delta at instant now.
func (a *Adjustable) Step(now sim.Time, delta time.Duration) {
	a.rebase(now)
	a.acc += int64(delta)
}

// DriftPPM returns the current frequency error.
func (a *Adjustable) DriftPPM() float64 { return a.drift }

func (a *Adjustable) rebase(now sim.Time) {
	a.acc = a.Read(now)
	a.base = now
}

// Quantized wraps a clock with capture-hardware granularity: reads are
// floored to a multiple of Step. The paper's tap timestamps at 8 ns.
type Quantized struct {
	Base Clock
	Step time.Duration
}

// Read implements Clock.
func (q Quantized) Read(now sim.Time) int64 {
	v := q.Base.Read(now)
	step := int64(q.Step)
	if step <= 1 {
		return v
	}
	if v >= 0 {
		return v - v%step
	}
	return v - (step + v%step) // floor for negative values
}
