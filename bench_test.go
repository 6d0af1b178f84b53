// Benchmarks regenerating every figure and requirement table of the
// paper, one per artifact:
//
//	BenchmarkFigure1TermMining           Fig. 1  research-gap bar counts
//	BenchmarkFigure4DelayCDF             Fig. 4L delay CDF of 6 eBPF variants
//	BenchmarkFigure4JitterCDF            Fig. 4R jitter CDF, 1 vs 25 flows
//	BenchmarkFigure5Switchover           Fig. 5  InstaPLC failover series
//	BenchmarkFigure6TopologyLatency      Fig. 6  topology latency sweep
//	BenchmarkSection21TimingRequirements §2.1    stack vs timing table
//	BenchmarkSection22Availability       §2.2    availability in nines
//	BenchmarkSection23TrafficMix         §2.3    traffic-mix taxonomy
//
//	BenchmarkRegistryValues              gateway  one numeric read of a run's registry
//	BenchmarkRegistryAppendValues        gateway  the same read into a kept slice
//	BenchmarkRegistryWritePrometheus     gateway  one text render of the same registry
//
// plus the DESIGN.md ablations (shaper none/CBS/TAS, watchdog
// threshold, PREEMPT_RT, optimizer halves) and the §2.1 scaling study
// (BenchmarkScalingVPLCsPerHost). Each benchmark prints its table once
// per run and reports headline values as custom metrics, so
// `go test -bench=. -benchmem` regenerates the whole evaluation.
package steelnet_test

import (
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"steelnet/internal/core"
	"steelnet/internal/host"
	"steelnet/internal/instaplc"
	"steelnet/internal/mltopo"
	"steelnet/internal/mlwork"
	"steelnet/internal/reflection"
	"steelnet/internal/telemetry"
	"steelnet/internal/trafficgen"
)

// printOnce prints each figure table a single time per test-binary run,
// however many benchmark iterations happen.
var printOnce sync.Map

func printTable(key, table string) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Println()
		fmt.Print(table)
	}
}

func BenchmarkFigure1TermMining(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		table, counts := core.Figure1(1)
		printTable("fig1", table)
		by := map[string]int{}
		for _, c := range counts {
			by[c.Label] = c.Occurrences
		}
		gap = float64(by["Datacenter"]) / float64(maxi(by["MQTT/OPC UA/VXLAN"], 1))
	}
	b.ReportMetric(gap, "gap-ratio")
}

func benchReflectionConfig() reflection.Config {
	cfg := reflection.DefaultConfig()
	cfg.Cycles = 800
	return cfg
}

func BenchmarkFigure4DelayCDF(b *testing.B) {
	var ringShift float64
	for i := 0; i < b.N; i++ {
		table, results := core.Figure4Delay(benchReflectionConfig())
		printTable("fig4l", table)
		by := map[string]float64{}
		for _, r := range results {
			by[r.Variant] = r.Delays.Median()
		}
		ringShift = by[reflection.VariantTSRB] - by[reflection.VariantBase]
	}
	b.ReportMetric(ringShift, "ringbuf-shift-µs")
}

func BenchmarkFigure4JitterCDF(b *testing.B) {
	var widening float64
	for i := 0; i < b.N; i++ {
		table, results := core.Figure4Jitter(benchReflectionConfig())
		printTable("fig4r", table)
		widening = results[1].Jitter.P99() / maxf(results[0].Jitter.P99(), 1)
	}
	b.ReportMetric(widening, "25flow-jitter-x")
}

func BenchmarkFigure5Switchover(b *testing.B) {
	var gapMS float64
	var failsafes float64
	for i := 0; i < b.N; i++ {
		table, res := core.Figure5(instaplc.DefaultExperimentConfig())
		printTable("fig5", table)
		gapMS = res.SwitchoverAt.Sub(res.FailAt).Seconds() * 1e3
		failsafes = float64(res.FailsafeEvents)
	}
	b.ReportMetric(gapMS, "switchover-ms")
	b.ReportMetric(failsafes, "failsafe-events")
}

func BenchmarkFigure6TopologyLatency(b *testing.B) {
	cfg := mltopo.Figure6Config{Seed: 1, ClientCounts: []int{32, 64, 128, 256}, Horizon: time.Second}
	var ringAt256, mlaAt256 float64
	for i := 0; i < b.N; i++ {
		table, results := core.Figure6(cfg)
		printTable("fig6", table)
		if r, ok := mltopo.Cell(results, mlwork.ObjectIdentification.Name, mltopo.Ring, 256); ok {
			ringAt256 = r.MeanLatencyMS
		}
		if r, ok := mltopo.Cell(results, mlwork.ObjectIdentification.Name, mltopo.MLAware, 256); ok {
			mlaAt256 = r.MeanLatencyMS
		}
	}
	b.ReportMetric(ringAt256, "ring@256-ms")
	b.ReportMetric(mlaAt256, "mlaware@256-ms")
}

func BenchmarkSection21TimingRequirements(b *testing.B) {
	var worstJitterUS float64
	for i := 0; i < b.N; i++ {
		results := core.Section21TimingCheck(host.PreemptRT, 1, 20000)
		printTable("s21", core.RenderTimingCheck(results))
		worstJitterUS = results[0].MeasuredWorstJitterNS / 1e3
	}
	b.ReportMetric(worstJitterUS, "worst-jitter-µs")
}

func BenchmarkSection22Availability(b *testing.B) {
	var instaNines float64
	for i := 0; i < b.N; i++ {
		results := core.RunAvailabilityComparison(core.DefaultAvailabilityConfig())
		printTable("s22", core.RenderAvailability(results))
		for _, r := range results {
			if r.Strategy == core.InstaPLCPair {
				instaNines = r.Report.Nines()
			}
		}
	}
	b.ReportMetric(instaNines, "instaplc-nines")
}

func BenchmarkSection23TrafficMix(b *testing.B) {
	var misclassified float64
	for i := 0; i < b.N; i++ {
		r := core.Section23TrafficMix(1, trafficgen.DefaultMix)
		printTable("s23", core.RenderTrafficMix(r))
		misclassified = float64(r.Misclassified)
	}
	b.ReportMetric(misclassified, "misclassified-vplc-flows")
}

// --- Ablations (DESIGN.md) ---

func BenchmarkAblationTAS(b *testing.B) {
	var tasP99, cbsP99, noneP99 float64
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultTASAblationConfig()
		tasP99 = core.RunShaperAblation(cfg, core.ShaperTAS).JitterP99NS / 1e3
		cbsP99 = core.RunShaperAblation(cfg, core.ShaperCBS).JitterP99NS / 1e3
		noneP99 = core.RunShaperAblation(cfg, core.ShaperNone).JitterP99NS / 1e3
	}
	b.ReportMetric(tasP99, "tas-p99-jitter-µs")
	b.ReportMetric(cbsP99, "cbs-p99-jitter-µs")
	b.ReportMetric(noneP99, "none-p99-jitter-µs")
}

func BenchmarkAblationWatchdog(b *testing.B) {
	for _, cycles := range []int{1, 3, 10} {
		cycles := cycles
		b.Run(fmt.Sprintf("cycles=%d", cycles), func(b *testing.B) {
			var gapMS, spurious float64
			for i := 0; i < b.N; i++ {
				cfg := instaplc.DefaultExperimentConfig()
				cfg.Horizon = 2 * time.Second
				cfg.InstaWatchdogCycles = cycles
				cfg.DeviceWatchdogFactor = 12 // keep the device out of the way
				res := instaplc.RunExperiment(cfg)
				// A too-tight watchdog (1 cycle) trips on ordinary
				// jitter before the real failure: count those
				// separately instead of reporting a negative gap.
				if res.SwitchoverAt > res.FailAt {
					gapMS = res.SwitchoverAt.Sub(res.FailAt).Seconds() * 1e3
				} else {
					gapMS = 0
				}
				if res.Switchovers > 1 || (res.SwitchoverAt > 0 && res.SwitchoverAt < res.FailAt) {
					spurious = float64(res.Switchovers)
				}
			}
			b.ReportMetric(gapMS, "switchover-ms")
			b.ReportMetric(spurious, "spurious-failovers")
		})
	}
}

func BenchmarkAblationPreemptRT(b *testing.B) {
	for _, prof := range []host.Profile{host.PreemptRT, host.Standard} {
		prof := prof
		b.Run(prof.Name, func(b *testing.B) {
			var p999 float64
			for i := 0; i < b.N; i++ {
				cfg := benchReflectionConfig()
				cfg.Profile = prof
				res := reflection.Run(cfg, reflection.NewBase())
				p999 = res.Delays.P999()
			}
			b.ReportMetric(p999, "p99.9-delay-µs")
		})
	}
}

func BenchmarkAblationOptimizer(b *testing.B) {
	for _, placementOnly := range []bool{false, true} {
		placementOnly := placementOnly
		name := "placement+dimensioning"
		if placementOnly {
			name = "placement-only"
		}
		b.Run(name, func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				sc := mltopo.DefaultScenario(mltopo.MLAware, mlwork.DefectDetection, 128)
				sc.Horizon = time.Second
				// Constrain compute to half the pods so cross-pod
				// traffic exists and dimensioning has something to do.
				sc.ClientsPerServer = 32
				sc.PlacementOnly = placementOnly
				mean = mltopo.Run(sc).MeanLatencyMS
			}
			b.ReportMetric(mean, "mean-latency-ms")
		})
	}
}

func BenchmarkScalingVPLCsPerHost(b *testing.B) {
	// The §2.1 scaling study: p99 cycle jitter as vPLCs consolidate.
	var j1, j16, j64 float64
	for i := 0; i < b.N; i++ {
		curve := core.ScalingCurve(host.PreemptRT, []int{1, 16, 64}, 1)
		printTable("scaling", core.RenderScalingCurve(host.PreemptRT, curve))
		j1, j16, j64 = curve[1], curve[16], curve[64]
	}
	b.ReportMetric(j1, "1-tenant-p99-ns")
	b.ReportMetric(j16, "16-tenant-p99-ns")
	b.ReportMetric(j64, "64-tenant-p99-ns")
}

// benchRegistry is a hosted run's metric registry as steelnetd reads it
// every slice: the instaplc harness's ~140 func-backed counters and
// gauges, no histograms, a few slices into the run.
func benchRegistry(b *testing.B) *telemetry.Registry {
	d, err := core.NewHeadless(core.HeadlessConfig{Seed: 1, Horizon: 400 * time.Millisecond, Slice: 50 * time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		d.Step()
	}
	return d.Registry()
}

var registryValuesSink []telemetry.MetricValue

// BenchmarkRegistryValues is the per-slice numeric read behind the
// gateway's tag stream. The registry keeps its entries ordered and its
// keys rendered, so the read is one walk and one allocation (the result
// slice); scripts/benchdiff.sh pins that.
func BenchmarkRegistryValues(b *testing.B) {
	reg := benchRegistry(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		registryValuesSink = reg.Values()
	}
}

// BenchmarkRegistryAppendValues is the same read as a publisher makes
// it every slice, into a slice it keeps: scripts/benchdiff.sh pins it
// at zero allocations.
func BenchmarkRegistryAppendValues(b *testing.B) {
	reg := benchRegistry(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		registryValuesSink = reg.AppendValues(registryValuesSink[:0])
	}
}

// BenchmarkRegistryWritePrometheus is the per-slice text render behind
// every run's /metrics snapshot: one buffer, sized by the previous
// render, which scripts/benchdiff.sh pins.
func BenchmarkRegistryWritePrometheus(b *testing.B) {
	reg := benchRegistry(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := reg.WritePrometheus(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
