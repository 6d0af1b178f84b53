// Package tsn synthesizes pre-computed transmission schedules for
// cyclic real-time flows — the "arbitrary scheduling algorithms that
// define pre-computed transmission schedules for pre-defined flows"
// the paper credits TSN with (§1.1, [95]). Given a set of periodic
// flows sharing a multi-hop trunk, Synthesize assigns each flow a
// transmission offset inside its period such that no two transmissions
// ever contend for a link, across the whole hyperperiod and along
// every hop (no-wait wave scheduling with guard bands). Because
// contention is designed away, the flows see zero queueing jitter by
// construction, which the tests verify against the simulator.
package tsn

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

// FlowSpec is one cyclic flow to schedule.
type FlowSpec struct {
	ID uint32
	// Period is the flow's cycle time.
	Period time.Duration
	// FrameBytes is the wire size of one transmission.
	FrameBytes int
}

// PathSpec is the shared trunk every flow traverses.
type PathSpec struct {
	// Hops is the number of links in the trunk chain.
	Hops int
	// LinkBps is the trunk rate.
	LinkBps float64
	// SwitchLatency is the per-switch forwarding delay.
	SwitchLatency time.Duration
	// GuardBand pads every transmission window (clock error, jitter).
	GuardBand time.Duration
}

// Assignment is one flow's computed slot.
type Assignment struct {
	Flow FlowSpec
	// Offset is the transmission time within each period at hop 0.
	Offset time.Duration
	// Ser is the flow's per-hop serialization time.
	Ser time.Duration
	// Window is the reserved occupancy at hop 0: Hops×Ser plus the
	// guard band. The reservation is wormhole-conservative: frames
	// advance per hop by their *own* serialization plus the switch
	// latency, so a small frame following a large one converges on it
	// downstream — reserving Hops×Ser at the first hop guarantees the
	// gap survives every hop.
	Window time.Duration
}

// Schedule is a complete synthesis result.
type Schedule struct {
	Path        PathSpec
	Hyperperiod time.Duration
	Assignments []Assignment
}

// Errors.
var (
	ErrInfeasible = errors.New("tsn: no feasible offset assignment")
	ErrBadSpec    = errors.New("tsn: invalid specification")
)

// granularity is the offset search step.
const granularity = time.Microsecond

// Synthesize computes offsets via first-fit over the hyperperiod,
// longest-window flows first (a decreasing-fit heuristic). It returns
// ErrInfeasible when the flows cannot fit.
func Synthesize(flows []FlowSpec, path PathSpec) (*Schedule, error) {
	if len(flows) == 0 || path.Hops < 1 || path.LinkBps <= 0 {
		return nil, ErrBadSpec
	}
	for _, f := range flows {
		if f.Period <= 0 || f.FrameBytes <= 0 {
			return nil, fmt.Errorf("%w: flow %d", ErrBadSpec, f.ID)
		}
	}
	hyper := flows[0].Period
	for _, f := range flows[1:] {
		hyper = lcm(hyper, f.Period)
		if hyper <= 0 || hyper > time.Second {
			return nil, fmt.Errorf("%w: hyperperiod overflow", ErrBadSpec)
		}
	}
	// Sort by window length descending (bigger frames are harder to
	// place), then by period (faster flows first), for determinism.
	order := append([]FlowSpec(nil), flows...)
	sort.SliceStable(order, func(i, j int) bool {
		wi, wj := window(order[i], path), window(order[j], path)
		if wi != wj {
			return wi > wj
		}
		return order[i].Period < order[j].Period
	})

	var occupied []interval // busy intervals at hop 0, within hyperperiod
	sched := &Schedule{Path: path, Hyperperiod: hyper}
	for _, f := range order {
		w := window(f, path)
		if w >= f.Period {
			return nil, fmt.Errorf("%w: flow %d window %v exceeds period %v", ErrInfeasible, f.ID, w, f.Period)
		}
		placed := false
		for off := time.Duration(0); off+w <= f.Period; off += granularity {
			if fits(occupied, f, off, w, hyper) {
				reps := int(hyper / f.Period)
				for k := 0; k < reps; k++ {
					start := time.Duration(k)*f.Period + off
					occupied = append(occupied, interval{start, start + w})
				}
				sched.Assignments = append(sched.Assignments, Assignment{Flow: f, Offset: off, Ser: ser(f, path), Window: w})
				placed = true
				break
			}
		}
		if !placed {
			return nil, fmt.Errorf("%w: flow %d", ErrInfeasible, f.ID)
		}
	}
	sort.Slice(sched.Assignments, func(i, j int) bool {
		return sched.Assignments[i].Flow.ID < sched.Assignments[j].Flow.ID
	})
	return sched, nil
}

// ser is a flow's per-hop serialization time.
func ser(f FlowSpec, path PathSpec) time.Duration {
	bytes := f.FrameBytes
	if bytes < 64 {
		bytes = 64
	}
	return time.Duration(float64(bytes*8) / path.LinkBps * 1e9)
}

// window is a flow's reservation at hop 0 (see Assignment.Window).
func window(f FlowSpec, path PathSpec) time.Duration {
	return time.Duration(path.Hops)*ser(f, path) + path.GuardBand
}

type interval struct{ start, end time.Duration }

// fits reports whether flow f at offset off collides with any occupied
// interval across its repetitions in the hyperperiod.
func fits(occupied []interval, f FlowSpec, off, w, hyper time.Duration) bool {
	reps := int(hyper / f.Period)
	for k := 0; k < reps; k++ {
		start := time.Duration(k)*f.Period + off
		end := start + w
		for _, iv := range occupied {
			if start < iv.end && iv.start < end {
				return false
			}
		}
	}
	return true
}

// Validate re-checks the non-overlap invariant at every hop using the
// frames' actual per-hop occupancies (their own serialization shifts),
// not the conservative reservations; a nil return means the schedule
// is contention-free end to end.
func (s *Schedule) Validate() error {
	for hop := 0; hop < s.Path.Hops; hop++ {
		var ivs []interval
		for _, a := range s.Assignments {
			reps := int(s.Hyperperiod / a.Flow.Period)
			base := a.Offset + time.Duration(hop)*(a.Ser+s.Path.SwitchLatency)
			for k := 0; k < reps; k++ {
				start := (time.Duration(k)*a.Flow.Period + base) % s.Hyperperiod
				ivs = append(ivs, interval{start, start + a.Ser})
			}
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
		for i := 1; i < len(ivs); i++ {
			if ivs[i].start < ivs[i-1].end {
				return fmt.Errorf("tsn: overlap at hop %d: [%v,%v) vs [%v,%v)",
					hop, ivs[i-1].start, ivs[i-1].end, ivs[i].start, ivs[i].end)
			}
		}
	}
	return nil
}

func gcd(a, b time.Duration) time.Duration {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b time.Duration) time.Duration { return a / gcd(a, b) * b }
