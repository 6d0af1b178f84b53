package metrics

import "time"

// Jitter converts a series of per-cycle delays into a jitter series:
// the absolute deviation of each delay from the series median. This is the
// definition used for Fig. 4 (right): with a perfectly deterministic stack
// every cycle's delay equals the median and jitter is zero.
func Jitter(delays *Series) *Series {
	med := delays.Median()
	out := NewSeries(delays.Len())
	for d := range delays.All() {
		dev := d - med
		if dev < 0 {
			dev = -dev
		}
		out.Add(dev)
	}
	return out
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
// above threshold and returns them in order.
func Bursts(jitter *Series, threshold float64, minRun int) []BurstEvent {
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
