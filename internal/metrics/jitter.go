package metrics

import (
	"sort"
	"time"
)

// Jitter converts a series of per-cycle delays into a jitter series:
// the absolute deviation of each delay from the series median. This is the
// definition used for Fig. 4 (right): with a perfectly deterministic stack
// every cycle's delay equals the median and jitter is zero. It is
// ScaledJitter at scale 1, and sorts delays in place.
func Jitter(delays *Series) *Series { return ScaledJitter(delays, 1) }

// ScaledJitter sorts delays in place (see Sort) and returns their jitter
// series already sorted: (d − median) × scale, negated when negative,
// for every delay d. Every value, and so every quantile, is bit for bit
// what a copy sorted afterwards would hold; Sum and Mean add up in
// ascending order. The deviations grow outward from the median on
// either side, so one pass merges the two runs and nothing is sorted
// twice. scale must be positive and delays must hold no NaN.
func ScaledJitter(delays *Series, scale float64) *Series {
	delays.Sort()
	ds := delays.samples
	med := delays.Median()
	dev := func(d float64) float64 {
		v := (d - med) * scale
		if v < 0 {
			v = -v
		}
		return v
	}
	out := make([]float64, len(ds))
	hi := sort.SearchFloat64s(ds, med) // ds[hi:] are at or above the median
	lo := hi - 1
	for i := range out {
		if hi == len(ds) || lo >= 0 && dev(ds[lo]) < dev(ds[hi]) {
			out[i] = dev(ds[lo])
			lo--
		} else {
			out[i] = dev(ds[hi])
			hi++
		}
	}
	j := NewSeriesFrom(out)
	j.ascending = true
	return j
}

// InterArrivalJitter converts packet arrival timestamps (nanoseconds) into
// a jitter series: |interarrival_i − nominal| for each consecutive pair.
// Industrial watchdogs key off exactly this quantity.
func InterArrivalJitter(arrivals []int64, nominal time.Duration) *Series {
	out := NewSeries(len(arrivals))
	for i := 1; i < len(arrivals); i++ {
		dev := arrivals[i] - arrivals[i-1] - int64(nominal)
		if dev < 0 {
			dev = -dev
		}
		out.Add(float64(dev))
	}
	return out
}

// BurstEvent records a run of consecutive cycles whose jitter exceeded a
// threshold — the pattern §2.1 says existing evaluations fail to report,
// and the one that expires PROFINET watchdog counters.
type BurstEvent struct {
	Start  int // index of first offending cycle
	Length int // number of consecutive offending cycles
	Peak   float64
}

// Bursts scans a jitter series for runs of >= minRun consecutive samples
// above threshold and returns them in order. The series must be in
// insertion order: a sorted one (Sort, Jitter) has lost the cycles'
// order, and Bursts panics on it.
func Bursts(jitter *Series, threshold float64, minRun int) []BurstEvent {
	if jitter.ascending {
		panic("metrics: Bursts over a sorted series")
	}
	if minRun < 1 {
		minRun = 1
	}
	var events []BurstEvent
	runStart, runLen := -1, 0
	peak := 0.0
	flush := func() {
		if runLen >= minRun {
			events = append(events, BurstEvent{Start: runStart, Length: runLen, Peak: peak})
		}
		runStart, runLen, peak = -1, 0, 0
	}
	i := 0
	for v := range jitter.All() {
		if v > threshold {
			if runLen == 0 {
				runStart = i
			}
			runLen++
			if v > peak {
				peak = v
			}
		} else if runLen > 0 {
			flush()
		}
		i++
	}
	flush()
	return events
}

// WouldTripWatchdog reports whether any burst reaches the watchdog's
// consecutive-miss budget — i.e. whether a real PROFINET device fed this
// delay pattern would have halted for safety.
func WouldTripWatchdog(jitter *Series, threshold float64, watchdogCycles int) bool {
	return len(Bursts(jitter, threshold, watchdogCycles)) > 0
}
