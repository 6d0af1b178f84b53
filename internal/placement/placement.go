// Package placement answers the scaling question §2.1 says existing
// vPLC evaluations omit: "how performance changes when multiple robot
// applications, vPLCs, or other sources of network traffic are running
// simultaneously". Consolidating vPLCs onto shared hosts multiplies
// host-level contention (the host model's per-flow jitter term), so
// each additional tenant widens every co-resident control loop's jitter
// distribution. This package measures that curve: §2.2's consolidation
// economics against §2.1's timing requirements.
package placement

import (
	"fmt"
	"sort"
	"time"

	"steelnet/internal/host"
	"steelnet/internal/metrics"
	"steelnet/internal/sim"
)

// MeasureJitter samples the p99 cycle jitter of one vPLC sharing a host
// with tenants-1 other flows, under the given profile.
func MeasureJitter(profile host.Profile, tenants, samples int, seed uint64) float64 {
	if tenants < 1 {
		tenants = 1
	}
	if samples <= 0 {
		samples = 20000
	}
	e := sim.NewEngine(seed)
	stk := host.NewStack(profile, e.RNG("placement"))
	stk.SetActiveFlows(tenants)
	lat := metrics.NewSeries(samples)
	for i := 0; i < samples; i++ {
		lat.AddDuration(stk.SchedulingNoise() + stk.FullKernelRx(64) + stk.FullKernelTx(64))
	}
	return metrics.Jitter(lat).P99()
}

// ScalingCurve measures p99 jitter for each tenant count — the scaling
// figure the paper calls for.
func ScalingCurve(profile host.Profile, tenantCounts []int, seed uint64) map[int]float64 {
	out := make(map[int]float64, len(tenantCounts))
	for _, n := range tenantCounts {
		out[n] = MeasureJitter(profile, n, 20000, seed)
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
