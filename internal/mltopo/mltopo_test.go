package mltopo

import (
	"bytes"
	"strings"
	"testing"
	"time"

	intnet "steelnet/internal/int"
	"steelnet/internal/mlwork"
	"steelnet/internal/simnet"
	"steelnet/internal/telemetry"
)

// quickScenario trims the horizon so unit tests stay fast; the full
// 2 s horizon is used by the Figure 6 bench.
func quickScenario(kind Kind, p mlwork.Profile, clients int) Scenario {
	sc := DefaultScenario(kind, p, clients)
	sc.Horizon = 800 * time.Millisecond
	return sc
}

func TestFigure6OrderingObjectIdentification(t *testing.T) {
	for _, clients := range []int{32, 128} {
		var lat [3]float64
		for i, kind := range []Kind{MLAware, LeafSpine, Ring} {
			lat[i] = Run(quickScenario(kind, mlwork.ObjectIdentification, clients)).MeanLatencyMS
		}
		if !(lat[0] < lat[1] && lat[1] < lat[2]) {
			t.Fatalf("clients=%d: MLA=%.2f LS=%.2f Ring=%.2f, want strictly increasing", clients, lat[0], lat[1], lat[2])
		}
	}
}

func TestFigure6OrderingDefectDetection(t *testing.T) {
	for _, clients := range []int{32, 128} {
		var lat [3]float64
		for i, kind := range []Kind{MLAware, LeafSpine, Ring} {
			lat[i] = Run(quickScenario(kind, mlwork.DefectDetection, clients)).MeanLatencyMS
		}
		if !(lat[0] < lat[1] && lat[1] < lat[2]) {
			t.Fatalf("clients=%d: MLA=%.2f LS=%.2f Ring=%.2f, want strictly increasing", clients, lat[0], lat[1], lat[2])
		}
	}
}

func TestRingDegradesFastestWithScale(t *testing.T) {
	growth := func(kind Kind) float64 {
		small := Run(quickScenario(kind, mlwork.ObjectIdentification, 32)).MeanLatencyMS
		big := Run(quickScenario(kind, mlwork.ObjectIdentification, 256)).MeanLatencyMS
		return big - small
	}
	ring := growth(Ring)
	ls := growth(LeafSpine)
	mla := growth(MLAware)
	if !(ring > ls && ls > mla) {
		t.Fatalf("growth ring=%.2f ls=%.2f mla=%.2f, want ring steepest", ring, ls, mla)
	}
	if mla > 0.3 {
		t.Fatalf("ML-aware growth = %.2fms, want ≈flat", mla)
	}
}

func TestLatenciesInLowMillisecondBand(t *testing.T) {
	for _, kind := range Kinds {
		r := Run(quickScenario(kind, mlwork.ObjectIdentification, 64))
		if r.MeanLatencyMS < 0.5 || r.MeanLatencyMS > 10 {
			t.Fatalf("%v mean = %.2fms, outside the paper's low-ms band", kind, r.MeanLatencyMS)
		}
	}
}

func TestLowLossEverywhere(t *testing.T) {
	for _, kind := range Kinds {
		r := Run(quickScenario(kind, mlwork.ObjectIdentification, 128))
		if r.LossRate > 0.05 {
			t.Fatalf("%v loss = %.3f", kind, r.LossRate)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	sc := quickScenario(Ring, mlwork.ObjectIdentification, 32)
	a, b := Run(sc), Run(sc)
	if a.MeanLatencyMS != b.MeanLatencyMS || a.Requests != b.Requests {
		t.Fatal("same seed diverged")
	}
}

func TestRunRejectsBadScenario(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero clients accepted")
		}
	}()
	Run(Scenario{Clients: 0, Kind: Ring, Profile: mlwork.ObjectIdentification})
}

func TestOptimizePlacesComputeAtDemand(t *testing.T) {
	// Pod 2 has triple demand: it must get the first server.
	demands := []Demand{
		{ClientIdx: 0, BytesPerSecond: 1e6, Pod: 0},
		{ClientIdx: 1, BytesPerSecond: 1e6, Pod: 1},
		{ClientIdx: 2, BytesPerSecond: 3e6, Pod: 2},
	}
	plan := Optimize(demands, 1, 3, 0.4)
	if plan.PodOfServer[0] != 2 {
		t.Fatalf("server placed at pod %d, want 2", plan.PodOfServer[0])
	}
	if plan.ServerOfClient[2] != 0 {
		t.Fatal("heavy client not assigned to its local server")
	}
}

func TestOptimizeLocalityHighWithEnoughServers(t *testing.T) {
	demands := make([]Demand, 64)
	for i := range demands {
		demands[i] = Demand{ClientIdx: i, BytesPerSecond: 1e6, Pod: i / 16}
	}
	plan := Optimize(demands, 4, 4, 0.4)
	if f := plan.LocalityFraction(demands); f != 1 {
		t.Fatalf("locality = %.2f, want 1 with one server per pod", f)
	}
}

func TestOptimizeDimensionsHotTrunks(t *testing.T) {
	// All demand in pod 0, but server forced elsewhere by placing two
	// servers with one pod dominating: cross traffic must raise trunks.
	demands := make([]Demand, 32)
	for i := range demands {
		demands[i] = Demand{ClientIdx: i, BytesPerSecond: 50e6, Pod: i % 2}
	}
	plan := Optimize(demands, 1, 2, 0.4)
	// One server serves both pods: the server-less pod's trunk must be
	// dimensioned above the 1G floor (16×50MB/s×8/0.4 = 16Gb/s).
	crossPod := 1 - plan.PodOfServer[0]
	if plan.PodTrunkBps[crossPod] <= 1e9 {
		t.Fatalf("hot trunk = %v bps, want dimensioned above floor", plan.PodTrunkBps[crossPod])
	}
}

func TestOptimizeDefaults(t *testing.T) {
	plan := Optimize([]Demand{{ClientIdx: 0, BytesPerSecond: 1, Pod: 0}}, 0, 1, -1)
	if len(plan.PodOfServer) != 1 {
		t.Fatal("server floor not applied")
	}
	if plan.AggBps < 10e9 {
		t.Fatal("agg floor not applied")
	}
}

func TestMLAwareUsesCompressionTrade(t *testing.T) {
	scRaw := DefaultScenario(Ring, mlwork.ObjectIdentification, 32)
	scMLA := DefaultScenario(MLAware, mlwork.ObjectIdentification, 32)
	if scRaw.Deg.CompressionRatio != 1 {
		t.Fatalf("legacy topology compresses: %v", scRaw.Deg.CompressionRatio)
	}
	if scMLA.Deg.CompressionRatio <= 1 {
		t.Fatal("ML-aware does not use the quality/quantity trade")
	}
	// The compression chosen still honors the accuracy floor.
	acc := mlwork.ObjectIdentification.Accuracy(mlwork.Degradation{CompressionRatio: scMLA.Deg.CompressionRatio})
	if acc < 0.94 {
		t.Fatalf("accuracy = %.3f under floor", acc)
	}
}

// TestFigure6CostRanksCellsByMeasuredWork runs a small grid and checks
// that the static estimate the sweep dispatches by puts the cells in
// the order of the events they actually fire, per application: the
// estimate only has to rank, and a wrong rank is what would leave the
// heaviest cell for last.
func TestFigure6CostRanksCellsByMeasuredWork(t *testing.T) {
	cells := figure6Grid(Figure6Config{ClientCounts: []int{16, 32, 64}})
	for _, app := range Apps {
		type measured struct {
			cell   figure6Cell
			events uint64
		}
		var ms []measured
		for _, c := range cells {
			if c.app.Name != app.Name {
				continue
			}
			sc := DefaultScenario(c.kind, c.app, c.clients)
			sc.Horizon = 50 * time.Millisecond
			h := NewHarness(sc)
			h.AdvanceTo(h.Horizon())
			ms = append(ms, measured{c, h.Engine().EventsFired()})
		}
		for _, a := range ms {
			for _, b := range ms {
				if a.cell.cost() > 2*b.cell.cost() && a.events <= b.events {
					t.Errorf("%s: %v/%d estimated at %.0f fired %d events, %v/%d at %.0f fired %d",
						app.Name, a.cell.kind, a.cell.clients, a.cell.cost(), a.events,
						b.cell.kind, b.cell.clients, b.cell.cost(), b.events)
				}
			}
		}
	}
}

func TestCellLookup(t *testing.T) {
	results := []Result{{Kind: Ring, App: "a", Clients: 32, MeanLatencyMS: 5}}
	if _, ok := Cell(results, "a", Ring, 32); !ok {
		t.Fatal("cell not found")
	}
	if _, ok := Cell(results, "a", Ring, 64); ok {
		t.Fatal("phantom cell found")
	}
}

func TestRenderFigure6(t *testing.T) {
	cfg := DefaultFigure6Config()
	cfg.ClientCounts = []int{16}
	cfg.Horizon = 400 * time.Millisecond
	out := RenderFigure6(RunFigure6(cfg))
	if !strings.Contains(out, "Figure 6") || !strings.Contains(out, "ML-aware") {
		t.Fatalf("render = %q", out)
	}
	if !strings.Contains(out, "object-identification") || !strings.Contains(out, "defect-detection") {
		t.Fatal("missing app panels")
	}
}

func TestKindString(t *testing.T) {
	if Ring.String() != "Ring" || LeafSpine.String() != "Leaf Spine" || MLAware.String() != "ML-aware" {
		t.Fatal("kind names broken")
	}
}

// TestFigure6INTExportHasNoCellBoundaries: the entry topobench calls
// (RunFigure6Checked) exports the same INT digests and
// trace as RunFigure6, at any worker count. Every cell restarts its
// request sequence numbers at 1, so a collector shared across cells
// would report reordering that never happened.
func TestFigure6INTExportHasNoCellBoundaries(t *testing.T) {
	export := func(workers int, run func(Figure6Config)) []byte {
		cfg := Figure6Config{Seed: 1, ClientCounts: []int{4, 8}, Horizon: 100 * time.Millisecond, Workers: workers}
		cfg.INT, cfg.Collector, cfg.Trace = true, intnet.NewCollector(), telemetry.NewTracer(nil)
		run(cfg)
		var b bytes.Buffer
		if err := cfg.Collector.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		if err := telemetry.WriteJSONL(&b, cfg.Trace.Events()); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	lib := export(4, func(cfg Figure6Config) { RunFigure6(cfg) })
	cli := export(1, func(cfg Figure6Config) {
		if _, err := RunFigure6Checked(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if !bytes.Equal(cli, lib) {
		t.Error("RunFigure6Checked(cfg) and RunFigure6(cfg) export different INT digests or traces")
	}
	if bytes.Contains(cli, []byte(`"reordered"`)) {
		t.Error("Fig. 6 INT export reports reordering across cell boundaries")
	}
}

// TestFigure6SharesPlants: the 24 cells of the paper's grid are built
// from at most 16 plants, a Ring or Leaf Spine cell sharing its plant
// with the other app's cell of that client count, and a cell on a
// shared plant ends in the state a lone NewHarness of its scenario
// ends in.
func TestFigure6SharesPlants(t *testing.T) {
	cfg := DefaultFigure6Config()
	cfg.Horizon = 20 * time.Millisecond
	scenarios, _, err := figure6Scenarios(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plants := figure6Plants(scenarios)
	distinct := map[*simnet.Blueprint]bool{}
	for i, sc := range scenarios {
		distinct[plants[i].bp] = true
		if sc.Kind == MLAware {
			continue
		}
		for j, other := range scenarios {
			if other.Kind == sc.Kind && other.Clients == sc.Clients && plants[j].bp != plants[i].bp {
				t.Errorf("%v/%d: cells %d and %d build apart", sc.Kind, sc.Clients, i, j)
			}
		}
	}
	if len(scenarios) != 24 || len(distinct) > 16 {
		t.Fatalf("%d cells built from %d blueprints, want 24 from at most 16", len(scenarios), len(distinct))
	}
	for i, sc := range scenarios {
		shared, alone := newHarness(sc, plants[i]), NewHarness(sc)
		shared.AdvanceTo(shared.Horizon())
		alone.AdvanceTo(alone.Horizon())
		if shared.Digest() != alone.Digest() {
			t.Errorf("%v/%d: digest on the shared plant %#x, built alone %#x", sc.Kind, sc.Clients, shared.Digest(), alone.Digest())
		}
	}
}
