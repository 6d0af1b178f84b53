// MRP ring: the engineered OT redundancy of §2.2 against the process
// watchdog. A vPLC drives an I/O device across a four-switch ring whose
// far-side cable is cut at 500 ms. The ring manager notices only after
// its test frames stop returning, so recovery is bounded by test
// interval × tolerance. With standard MRP timing (20 ms × 3) that bound
// exceeds the device's three-cycle watchdog and the device fails safe;
// a 1 ms × 2 profile reroutes inside it and production never stops.
package main

import (
	"fmt"
	"time"

	"steelnet/internal/mrp"
)

func main() {
	for _, ring := range []mrp.Config{
		mrp.DefaultConfig,
		{TestInterval: time.Millisecond, TestTolerance: 2},
	} {
		cfg := mrp.DefaultRingExperimentConfig()
		cfg.Ring = ring
		res, err := mrp.RunRingExperiment(cfg)
		if err != nil {
			panic(err)
		}
		fmt.Printf("=== MRP test interval %v, tolerance %d (watchdog %d × %v) ===\n",
			ring.TestInterval, ring.TestTolerance, cfg.WatchdogFactor, cfg.Cycle)
		fmt.Print(res.FaultTrace)
		fmt.Printf("ring opened at %v, final state %v after %d transitions\n",
			time.Duration(res.FirstOpenAt), res.FinalRingState, res.Transitions)
		fmt.Printf("device: %v, failsafes %d\n\n", res.DeviceState, res.FailsafeEvents)
	}
}
