// Package clock models the timestamping hardware the Traffic Reflection
// method reasons about (§3): a device clock with a fixed offset from
// true time, and quantized capture timestamps such as the network tap's
// 8 ns resolution. The method takes both timestamps of a round trip
// from the one tap clock, so no clock ever has to be synchronised and
// the offset cancels out of every delay it measures.
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
