package placement

import (
	"strings"
	"testing"

	"steelnet/internal/host"
)

func TestJitterGrowsWithTenants(t *testing.T) {
	curve := ScalingCurve(host.PreemptRT, []int{1, 4, 16, 64}, 1)
	if !(curve[1] < curve[4] && curve[4] < curve[16] && curve[16] < curve[64]) {
		t.Fatalf("curve not monotone: %v", curve)
	}
	// A dedicated PREEMPT_RT host holds sub-µs p99; 64 tenants do not.
	if curve[1] >= 1000 {
		t.Fatalf("dedicated host p99 = %.0fns", curve[1])
	}
	if curve[64] <= 1000 {
		t.Fatalf("64-tenant host p99 = %.0fns, contention model too weak", curve[64])
	}
}

func TestRenderScalingCurve(t *testing.T) {
	curve := ScalingCurve(host.PreemptRT, []int{1, 8}, 1)
	out := RenderScalingCurve(host.PreemptRT, curve)
	if !strings.Contains(out, "vPLCs/host") || !strings.Contains(out, "preempt-rt") {
		t.Fatalf("render = %q", out)
	}
}

func TestDeterministic(t *testing.T) {
	a := MeasureJitter(host.PreemptRT, 8, 5000, 7)
	b := MeasureJitter(host.PreemptRT, 8, 5000, 7)
	if a != b {
		t.Fatal("same seed diverged")
	}
}
