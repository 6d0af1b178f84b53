package core

import (
	"errors"
	"math"
	"testing"

	"steelnet/internal/sim"
	"steelnet/internal/simnet"
	"steelnet/internal/topo"
)

// testCampusConfig is a small-but-real campus: 3 cells of 3 switches
// (fanout 2, so the tree has depth) with 2 hosts per switch, 2 spines.
// Cross-cell latency crosses the 15 µs SLO bound (≈5 switch hops plus
// two 5 µs backbone legs); intra-cell traffic stays well under it.
func testCampusConfig(workers int) CampusConfig {
	return CampusConfig{
		Seed: 11,
		Topo: topo.CampusConfig{
			Cells: 3, SwitchesPerCell: 3, HostsPerSwitch: 2,
			Spines: 2, Fanout: 2,
		},
		Horizon: 2 * sim.Millisecond,
		Period:  50 * sim.Microsecond,
		INT:     true,
		SLO:     "latency:*<15µs",
		Workers: workers,
	}
}

func runCampus(t *testing.T, workers int) (*CampusHarness, CampusResult) {
	t.Helper()
	h, err := NewCampusHarness(testCampusConfig(workers))
	if err != nil {
		t.Fatal(err)
	}
	h.Run()
	return h, h.Result()
}

func TestCampusDeterministicAcrossWorkers(t *testing.T) {
	ref, refRes := runCampus(t, 1)
	refDigest := ref.Digest()
	if refRes.Shards != 4 {
		t.Fatalf("shards = %d, want spine + 3 cells = 4", refRes.Shards)
	}
	if refRes.INTObservations == 0 {
		t.Fatal("no INT observations; cross-cell sources are not stamping")
	}
	if refRes.Breaches == 0 {
		t.Fatal("no SLO breaches; cross-cell latency never crossed the bound")
	}
	if refRes.Accounting.CrossWire != 0 {
		t.Fatalf("drained run left %d frames on the cross-shard wire", refRes.Accounting.CrossWire)
	}
	if err := refRes.Accounting.Check(); err != nil {
		t.Fatal(err)
	}
	for _, cs := range refRes.PerCell {
		if cs.TxFrames == 0 || cs.RxFrames == 0 {
			t.Fatalf("cell %d saw no traffic: %+v", cs.Cell, cs)
		}
	}
	for _, workers := range []int{2, 4, 8} {
		h, res := runCampus(t, workers)
		if got := h.Digest(); got != refDigest {
			t.Fatalf("workers=%d digest %#x != serial %#x", workers, got, refDigest)
		}
		if res.Breaches != refRes.Breaches || res.INTObservations != refRes.INTObservations {
			t.Fatalf("workers=%d telemetry (%d obs, %d breaches) != serial (%d, %d)",
				workers, res.INTObservations, res.Breaches,
				refRes.INTObservations, refRes.Breaches)
		}
	}
	// The merged views must also be worker-independent; render them once
	// so table assembly is covered.
	if RenderCampus(refRes) == "" {
		t.Fatal("empty render")
	}
}

// TestCampusPoolsDrain pins the cross-shard frame-pool contract: frames
// are drawn from the sending shard's pool and released to the receiving
// shard's, so individual pools go negative/positive but the sum of
// Outstanding drains to zero.
func TestCampusPoolsDrain(t *testing.T) {
	h, _ := runCampus(t, 2)
	var sum int64
	for _, p := range h.pools {
		sum += p.Outstanding()
	}
	if sum != 0 {
		t.Fatalf("pooled frames leaked across shards: outstanding sum = %d", sum)
	}
}

// TestCampusConservationAtCuts checks the accounting identity at
// deadlines that slice shard windows mid-way, while traffic is on the
// cross-shard wire.
func TestCampusConservationAtCuts(t *testing.T) {
	h, err := NewCampusHarness(testCampusConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	sawCrossWire := false
	horizon := sim.Time(0).Add(h.Config().Horizon)
	for at := sim.Time(77_777); at < horizon; at += 77_777 {
		h.AdvanceTo(at)
		a := h.Network().Account()
		if err := a.Check(); err != nil {
			t.Fatalf("cut %v: %v", at, err)
		}
		if a.CrossWire > 0 {
			sawCrossWire = true
		}
	}
	if !sawCrossWire {
		t.Fatal("no cut ever caught a frame on the cross-shard wire")
	}
}

// TestCampusCheckpointResume pins that a run cut mid-window and then
// continued ends byte-identical to straight runs: one harness advanced
// serially to an instant inside a window, with messages held in
// outboxes, then run to the horizon, digests equal to the straight run
// at 2 and at 8 workers. -obs-addr advances a campus in slices this way.
func TestCampusCheckpointResume(t *testing.T) {
	h, err := NewCampusHarness(testCampusConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	// 777_777 is no multiple of anything in the scenario: it lands
	// mid-window, with messages held in outboxes.
	h.AdvanceTo(777_777)
	if h.Now() != 777_777 {
		t.Fatalf("clock %v after the cut, want 777777", h.Now())
	}
	if h.Network().Account().CrossWire == 0 {
		t.Fatal("the cut caught no frame on the cross-shard wire")
	}
	h.Run()
	got := h.Digest()
	for _, workers := range []int{2, 8} {
		straight, _ := runCampus(t, workers)
		if want := straight.Digest(); got != want {
			t.Fatalf("sliced digest %#x != straight run at %d workers %#x", got, workers, want)
		}
	}
	if res := h.Result(); res.Breaches == 0 || res.INTObservations == 0 {
		t.Fatalf("sliced run lost telemetry: %+v", res)
	}
}

// TestCampusPortBound: a campus whose spines (one port per cell) or
// gateways (one per tree child, host and spine) would need more than
// simnet.MaxSwitchPorts ports, whose payload a frame's zero tail cannot
// count, or that has no host to send, is refused before anything is
// built.
func TestCampusPortBound(t *testing.T) {
	over := simnet.MaxSwitchPorts + 1
	type forged struct {
		name  string
		forge func(*CampusConfig)
	}
	cases := []forged{
		{"cells", func(c *CampusConfig) { c.Topo.Cells = over }},
		{"spines", func(c *CampusConfig) { c.Topo.Spines = over }},
		{"hosts", func(c *CampusConfig) { c.Topo.HostsPerSwitch = simnet.MaxSwitchPorts }},
		{"no hosts", func(c *CampusConfig) { c.Topo.HostsPerSwitch = 0 }},
		// The zero config's topo.Campus defaults give a switch no host.
		{"zero config", func(c *CampusConfig) { *c = CampusConfig{Seed: 1} }},
	}
	// Only an int wider than 32 bits can exceed a zero tail's count.
	if math.MaxInt > math.MaxUint32 {
		cases = append(cases, forged{"payload", func(c *CampusConfig) { c.FrameBytes = min(1<<32, math.MaxInt) }})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testCampusConfig(1)
			tc.forge(&cfg)
			if h, err := NewCampusHarness(cfg); err == nil || h != nil {
				t.Fatalf("NewCampusHarness = %v, %v; want an error", h, err)
			}
		})
	}
	// The largest payload a zero tail counts, or math.MaxInt where int
	// is 32 bits, builds.
	cfg := testCampusConfig(1)
	cfg.FrameBytes = min(math.MaxUint32, math.MaxInt)
	if _, err := NewCampusHarness(cfg); err != nil {
		t.Fatalf("a %d-byte payload: %v", cfg.FrameBytes, err)
	}
}

// TestCampusRefusesZeroLookahead: a zero-propagation backbone cannot be
// sharded conservatively, and the campus is refused with an error that
// wraps sim.ErrZeroLookahead rather than run on some other partition.
func TestCampusRefusesZeroLookahead(t *testing.T) {
	cfg := testCampusConfig(4)
	cfg.Topo.Backbone = topo.LinkSpec{RateBps: 100e9, PropNs: 0}
	h, err := NewCampusHarness(cfg)
	if !errors.Is(err, sim.ErrZeroLookahead) || h != nil {
		t.Fatalf("NewCampusHarness = %v, %v; want nil and sim.ErrZeroLookahead", h, err)
	}
}

// TestCampusDeliverySlotsAcrossWorkers runs the test campus for
// thousands of shard windows, so its cross-shard frames ride delivery
// slots that have been recycled many times over, and checks that the
// digest is byte-identical at workers 1, 2 and 4, the parallel runs
// advanced in uneven chunks. CI runs it under -race, where each shard's
// worker and the coordinator take turns on that shard's slot list.
func TestCampusDeliverySlotsAcrossWorkers(t *testing.T) {
	cfg := testCampusConfig(1)
	cfg.Horizon = 20 * sim.Millisecond
	ref, err := NewCampusHarness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref.Run()
	want := ref.Digest()
	if st := ref.Network().Group.Stats(); st.Windows < 2000 || st.Messages < st.Windows {
		t.Fatalf("%d windows carrying %d cross-shard messages; want thousands of windows with traffic", st.Windows, st.Messages)
	}
	for _, workers := range []int{2, 4} {
		cfg.Workers = workers
		h, err := NewCampusHarness(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for at := sim.Time(0); at < h.Horizon(); {
			at = min(at+1_234_567, h.Horizon())
			h.AdvanceTo(at)
		}
		if got := h.Digest(); got != want {
			t.Fatalf("workers=%d digest %#x != serial %#x", workers, got, want)
		}
	}
}
