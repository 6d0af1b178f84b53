package core

import (
	"fmt"
	"math"
	"sort"
	"time"

	"steelnet/internal/corpus"
	"steelnet/internal/host"
	"steelnet/internal/instaplc"
	"steelnet/internal/metrics"
	"steelnet/internal/mltopo"
	"steelnet/internal/reflection"
	"steelnet/internal/sim"
	"steelnet/internal/trafficgen"
)

// Figure1 mines the synthetic proceedings and returns the rendered
// research-gap bar list plus the raw counts.
func Figure1(seed uint64) (string, []corpus.Count) {
	counts, docs := corpus.MineFigure1(seed)
	return corpus.RenderFigure1(counts, docs), counts
}

// Figure4Delay runs the six-variant reflection experiment (Fig. 4 left).
func Figure4Delay(cfg reflection.Config) (string, []reflection.Result) {
	results := reflection.RunAllVariants(cfg)
	return reflection.DelayTable(results), results
}

// Figure4Jitter runs the 1-vs-25-flow jitter sweep (Fig. 4 right).
func Figure4Jitter(cfg reflection.Config) (string, []reflection.Result) {
	results := reflection.RunFlowSweep(cfg, []int{1, 25})
	return reflection.JitterTable(results), results
}

// Figure5 runs the InstaPLC failover scenario.
func Figure5(cfg instaplc.ExperimentConfig) (string, instaplc.ExperimentResult) {
	res := instaplc.RunExperiment(cfg)
	return instaplc.RenderFigure5(res), res
}

// Figure6 runs the topology sweep.
func Figure6(cfg mltopo.Figure6Config) (string, []mltopo.Result) {
	results := mltopo.RunFigure6(cfg)
	return mltopo.RenderFigure6(results), results
}

// TimingRequirement is one §2.1 requirement row.
type TimingRequirement struct {
	UseCase  string
	Cycle    time.Duration
	Latency  time.Duration
	JitterNS float64
}

// Section21Requirements are the paper's numbers: machine tools at
// 500 µs cycles, high-speed motion control at 250 µs latency and <1 µs
// jitter, process automation at 10-100 ms.
var Section21Requirements = []TimingRequirement{
	{UseCase: "machine tools", Cycle: 500 * time.Microsecond, Latency: 500 * time.Microsecond, JitterNS: 1000},
	{UseCase: "motion control", Cycle: 250 * time.Microsecond, Latency: 250 * time.Microsecond, JitterNS: 1000},
	{UseCase: "process automation", Cycle: 10 * time.Millisecond, Latency: 10 * time.Millisecond, JitterNS: 100000},
}

// TimingCheckResult reports one host profile against one requirement.
// Safety arguments live at the worst case (§2.1: existing evaluations
// "fail to report critical performance metrics such as jitter and
// worst-case latency/jitter"), so the verdicts use the maxima; p99
// values are reported alongside for comparison with papers that stop
// there.
type TimingCheckResult struct {
	Requirement               TimingRequirement
	Profile                   string
	MeasuredP99LatencyNS      float64
	MeasuredWorstLatencyNS    float64
	MeasuredP99JitterNS       float64
	MeasuredWorstJitterNS     float64
	MeetsLatency, MeetsJitter bool
}

// sampleCycleLatency draws samples cycle latencies of one vPLC sharing
// its host with tenants-1 other flows. One cycle pays scheduling wakeup
// + rx + tx on the full-kernel path.
func sampleCycleLatency(profile host.Profile, tenants int, seed uint64, samples int) *metrics.Series {
	if samples <= 0 {
		samples = 20000
	}
	e := sim.NewEngine(seed)
	stk := host.NewStack(profile, e.RNG("timing"))
	stk.SetActiveFlows(tenants)
	lat := metrics.NewSeries(samples)
	for i := 0; i < samples; i++ {
		lat.AddDuration(stk.SchedulingNoise() + stk.FullKernelRx(64) + stk.FullKernelTx(64))
	}
	return lat
}

// Section21TimingCheck samples a host stack's full-kernel path (the
// vPLC data path) and checks it against each requirement at the worst
// case — the quantitative form of "current stacks do not meet these
// requirements".
func Section21TimingCheck(profile host.Profile, seed uint64, samples int) []TimingCheckResult {
	lat := sampleCycleLatency(profile, 1, seed, samples)
	jit := metrics.Jitter(lat)
	out := make([]TimingCheckResult, 0, len(Section21Requirements))
	for _, req := range Section21Requirements {
		r := TimingCheckResult{
			Requirement:            req,
			Profile:                profile.Name,
			MeasuredP99LatencyNS:   lat.P99(),
			MeasuredWorstLatencyNS: lat.Max(),
			MeasuredP99JitterNS:    jit.P99(),
			MeasuredWorstJitterNS:  jit.Max(),
		}
		r.MeetsLatency = r.MeasuredWorstLatencyNS <= float64(req.Latency)
		r.MeetsJitter = r.MeasuredWorstJitterNS <= req.JitterNS
		out = append(out, r)
	}
	return out
}

// ScalingCurve answers the scaling question §2.1 says existing vPLC
// evaluations omit: how timing changes as more vPLCs share a host. It
// returns the p99 cycle jitter for each tenant count; every co-resident
// flow widens the host's contention term.
func ScalingCurve(profile host.Profile, tenantCounts []int, seed uint64) map[int]float64 {
	out := make(map[int]float64, len(tenantCounts))
	for _, n := range tenantCounts {
		out[n] = metrics.Jitter(sampleCycleLatency(profile, n, seed, 20000)).P99()
	}
	return out
}

// RenderScalingCurve renders the curve as a table.
func RenderScalingCurve(profile host.Profile, curve map[int]float64) string {
	counts := make([]int, 0, len(curve))
	for n := range curve {
		counts = append(counts, n)
	}
	sort.Ints(counts)
	t := metrics.NewTable(
		fmt.Sprintf("§2.1 scaling: vPLCs per host vs p99 cycle jitter (%s)", profile.Name),
		"vPLCs/host", "p99 jitter")
	for _, n := range counts {
		t.AddRow(fmt.Sprintf("%d", n), time.Duration(curve[n]).Round(10*time.Nanosecond).String())
	}
	return t.String()
}

// RenderTimingCheck renders the §2.1 check as a table.
func RenderTimingCheck(results []TimingCheckResult) string {
	t := metrics.NewTable("Section 2.1: host stack vs industrial timing requirements (worst case)",
		"use case", "profile", "req latency", "worst latency", "req jitter", "worst jitter", "meets")
	for _, r := range results {
		t.AddRow(
			r.Requirement.UseCase,
			r.Profile,
			r.Requirement.Latency.String(),
			time.Duration(r.MeasuredWorstLatencyNS).Round(time.Microsecond).String(),
			time.Duration(r.Requirement.JitterNS).String(),
			time.Duration(r.MeasuredWorstJitterNS).Round(10*time.Nanosecond).String(),
			formatBool(r.MeetsLatency && r.MeetsJitter),
		)
	}
	return t.String()
}

// TrafficMixResult is the §2.3 characterization.
type TrafficMixResult struct {
	Histogram     map[trafficgen.Class]int
	Misclassified int
	Total         int
}

// Section23TrafficMix generates a converged-network flow population
// and classifies it.
func Section23TrafficMix(seed uint64, mix trafficgen.Mix) TrafficMixResult {
	rng := sim.NewRNG(seed)
	flows := trafficgen.Generate(rng, mix)
	return TrafficMixResult{
		Histogram:     trafficgen.Histogram(flows),
		Misclassified: trafficgen.MisclassifiedBySizeAlone(flows),
		Total:         len(flows),
	}
}

// RenderTrafficMix renders the §2.3 characterization.
func RenderTrafficMix(r TrafficMixResult) string {
	t := metrics.NewTable("Section 2.3: converged traffic mix", "class", "flows")
	for _, c := range []trafficgen.Class{trafficgen.Mice, trafficgen.Medium, trafficgen.Elephant, trafficgen.DeterministicMicroflow} {
		t.AddRow(c.String(), formatInt(r.Histogram[c]))
	}
	t.AddRow("— misclassified by size-only taxonomy", formatInt(r.Misclassified))
	return t.String()
}

func formatPct(v float64) string { return fmt.Sprintf("%.7f%%", v*100) }

func formatNines(v float64) string {
	if math.IsInf(v, 1) {
		return "inf"
	}
	return fmt.Sprintf("%.2f", v)
}

func formatInt(v int) string { return fmt.Sprintf("%d", v) }

func formatBool(v bool) string {
	if v {
		return "yes"
	}
	return "no"
}
