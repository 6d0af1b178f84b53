package core

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"steelnet/internal/instaplc"
	"steelnet/internal/mltopo"
	"steelnet/internal/reflection"
	"steelnet/internal/sim"
)

// The figure sweeps run their cells on a worker pool. The determinism
// contract is that parallelism changes wall-clock time only: for a
// fixed seed the rendered tables must be byte-identical no matter how
// many workers ran the sweep. These tests pin that contract by diffing
// the serial table against a parallel one.

func goldenReflectionConfig() reflection.Config {
	cfg := reflection.DefaultConfig()
	cfg.Cycles = 120 // enough cycles for stable percentiles, short enough for CI
	return cfg
}

func parallelWorkers() int {
	w := runtime.NumCPU()
	if w < 4 {
		w = 4 // exercise real concurrency even on small CI boxes
	}
	return w
}

func TestFigure4DelayTableIdenticalAcrossWorkerCounts(t *testing.T) {
	serial := goldenReflectionConfig()
	serial.Workers = 1
	wantTable, wantResults := Figure4Delay(serial)

	par := goldenReflectionConfig()
	par.Workers = parallelWorkers()
	gotTable, gotResults := Figure4Delay(par)

	if gotTable != wantTable {
		t.Errorf("Figure4Delay table differs between workers=1 and workers=%d:\n--- serial ---\n%s--- parallel ---\n%s",
			par.Workers, wantTable, gotTable)
	}
	if len(gotResults) != len(wantResults) {
		t.Fatalf("result count differs: %d vs %d", len(gotResults), len(wantResults))
	}
	for i := range wantResults {
		if gotResults[i].Variant != wantResults[i].Variant {
			t.Errorf("result %d variant order differs: %q vs %q", i, gotResults[i].Variant, wantResults[i].Variant)
		}
		if gotResults[i].RingRecords != wantResults[i].RingRecords {
			t.Errorf("result %d ring records differ: %d vs %d", i, gotResults[i].RingRecords, wantResults[i].RingRecords)
		}
	}
}

func TestFigure4JitterTableIdenticalAcrossWorkerCounts(t *testing.T) {
	serial := goldenReflectionConfig()
	serial.Workers = 1
	wantTable, _ := Figure4Jitter(serial)

	par := goldenReflectionConfig()
	par.Workers = parallelWorkers()
	gotTable, _ := Figure4Jitter(par)

	if gotTable != wantTable {
		t.Errorf("Figure4Jitter table differs between workers=1 and workers=%d:\n--- serial ---\n%s--- parallel ---\n%s",
			par.Workers, wantTable, gotTable)
	}
}

func TestChaosSweepTableIdenticalAcrossWorkerCounts(t *testing.T) {
	// Same seed + same fault plans ⇒ byte-identical chaos table at any
	// worker count: fault injection must not leak nondeterminism into
	// the sweep (every cell's plan and engine derive only from the cell
	// seed, and fault RNG streams are per-port by name).
	base := DefaultChaosConfig()
	base.Intensities = []int{0, 3, 9}
	base.Trials = 2

	serial := base
	serial.Workers = 1
	wantCells := runChaos(t, serial)
	wantTable := RenderChaosSweep(wantCells)

	par := base
	par.Workers = parallelWorkers()
	gotCells := runChaos(t, par)
	gotTable := RenderChaosSweep(gotCells)

	if gotTable != wantTable {
		t.Errorf("chaos table differs between workers=1 and workers=%d:\n--- serial ---\n%s--- parallel ---\n%s",
			par.Workers, wantTable, gotTable)
	}
	for i := range wantCells {
		if gotCells[i] != wantCells[i] {
			t.Errorf("cell %d differs:\nserial:   %+v\nparallel: %+v", i, wantCells[i], gotCells[i])
		}
	}
}

// TestFigure6TableIdenticalAcrossSeedsAndWorkers extends the worker
// contract across seeds: the engine's batched dequeue must not perturb
// any seed's rendered table, serial or parallel. Seed 1 is covered (at
// a longer horizon) by TestFigure6TableIdenticalAcrossWorkerCounts.
func TestFigure6TableIdenticalAcrossSeedsAndWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping topology sweep in -short mode")
	}
	for _, seed := range []uint64{2, 7} {
		base := mltopo.Figure6Config{
			Seed:         seed,
			ClientCounts: []int{8},
			Horizon:      60 * time.Millisecond,
		}

		serial := base
		serial.Workers = 1
		wantTable, _ := Figure6(serial)

		par := base
		par.Workers = parallelWorkers()
		gotTable, _ := Figure6(par)

		if gotTable != wantTable {
			t.Errorf("seed %d: Figure6 table differs between workers=1 and workers=%d:\n--- serial ---\n%s--- parallel ---\n%s",
				seed, par.Workers, wantTable, gotTable)
		}
	}
}

// TestFigure5TableStableAcrossSeeds reruns the single-cell InstaPLC
// experiment per seed and requires byte-identical renders: Figure 5
// exercises deep ticker chains and same-instant control/IO bursts, the
// exact shapes the batched dequeue restages, so any batching
// nondeterminism shows up here as a table diff.
func TestFigure5TableStableAcrossSeeds(t *testing.T) {
	for _, seed := range []uint64{1, 3, 9} {
		cfg := instaplc.DefaultExperimentConfig()
		cfg.Seed = seed
		cfg.Horizon = 400 * time.Millisecond
		cfg.FailAt = 250 * time.Millisecond
		want, _ := Figure5(cfg)
		got, _ := Figure5(cfg)
		if got != want {
			t.Errorf("seed %d: Figure5 table not reproducible:\n--- first ---\n%s--- second ---\n%s",
				seed, want, got)
		}
		if want == "" {
			t.Errorf("seed %d: Figure5 rendered empty", seed)
		}
	}
}

// campusArtifacts runs a campus scenario and returns every rendered
// artifact a user can export: the result table, the merged INT path
// digest export, and the merged SLO breach log. The cross-shard golden
// contract is that all three are byte-identical for any worker count.
func campusArtifacts(t *testing.T, seed uint64, workers int) (table, intJSONL, breachLog string) {
	t.Helper()
	cfg := testCampusConfig(workers)
	cfg.Seed = seed
	h, err := NewCampusHarness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.Run()
	table = RenderCampus(h.Result())
	var buf bytes.Buffer
	if err := h.MergedCollector().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	intJSONL = buf.String()
	buf.Reset()
	if err := h.MergedWatchdog().WriteBreachLog(&buf); err != nil {
		t.Fatal(err)
	}
	return table, intJSONL, buf.String()
}

// TestCampusArtifactsIdenticalAcrossWorkersAndSeeds is the golden
// cross-shard determinism suite: for several seeds, the campus table,
// the INT digest export and the SLO breach log must not change by one
// byte when the shard group runs on 2 or 8 worker goroutines instead
// of serially.
func TestCampusArtifactsIdenticalAcrossWorkersAndSeeds(t *testing.T) {
	for _, seed := range []uint64{1, 5, 23} {
		wantTable, wantINT, wantBreach := campusArtifacts(t, seed, 1)
		if wantINT == "" || wantBreach == "" {
			t.Fatalf("seed %d: empty telemetry artifacts (int=%d breach=%d bytes)",
				seed, len(wantINT), len(wantBreach))
		}
		for _, workers := range []int{2, 8} {
			gotTable, gotINT, gotBreach := campusArtifacts(t, seed, workers)
			if gotTable != wantTable {
				t.Errorf("seed %d: campus table differs between workers=1 and workers=%d:\n--- serial ---\n%s--- parallel ---\n%s",
					seed, workers, wantTable, gotTable)
			}
			if gotINT != wantINT {
				t.Errorf("seed %d: INT export differs between workers=1 and workers=%d", seed, workers)
			}
			if gotBreach != wantBreach {
				t.Errorf("seed %d: SLO breach log differs between workers=1 and workers=%d:\n--- serial ---\n%s--- parallel ---\n%s",
					seed, workers, wantBreach, gotBreach)
			}
		}
	}
}

// TestCampusResumedArtifactsIdentical extends the golden contract
// through a checkpoint: save mid-run serially, restore on 8 workers,
// and require the finished artifacts to match the straight run's.
func TestCampusResumedArtifactsIdentical(t *testing.T) {
	wantTable, wantINT, wantBreach := campusArtifacts(t, 9, 1)

	cfg := testCampusConfig(1)
	cfg.Seed = 9
	h, err := NewCampusHarness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.AdvanceTo(sim.Time(0).Add(cfg.Horizon / 3))
	var ckpt bytes.Buffer
	if err := h.Save(&ckpt); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreCampus(&ckpt, CampusConfig{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	restored.Run()
	gotTable := RenderCampus(restored.Result())
	var buf bytes.Buffer
	if err := restored.MergedCollector().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	gotINT := buf.String()
	buf.Reset()
	if err := restored.MergedWatchdog().WriteBreachLog(&buf); err != nil {
		t.Fatal(err)
	}
	if gotTable != wantTable {
		t.Errorf("resumed campus table differs:\n--- straight ---\n%s--- resumed ---\n%s", wantTable, gotTable)
	}
	if gotINT != wantINT {
		t.Error("resumed INT export differs from straight run")
	}
	if got := buf.String(); got != wantBreach {
		t.Errorf("resumed breach log differs:\n--- straight ---\n%s--- resumed ---\n%s", wantBreach, got)
	}
}

// TestFigure6TableIdenticalAcrossWorkerCounts pins the Fig. 6 grid
// against the serial sweep at 2, 4 and NumCPU workers. A parallel sweep
// starts the costliest cells first, so the widths are named explicitly:
// the reordered dispatch is exercised on a one-core runner too.
func TestFigure6TableIdenticalAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping topology sweep in -short mode")
	}
	base := mltopo.Figure6Config{
		Seed:         1,
		ClientCounts: []int{8, 16},
		Horizon:      100 * time.Millisecond,
	}

	serial := base
	serial.Workers = 1
	wantTable, wantResults := Figure6(serial)

	for _, workers := range []int{2, 4, parallelWorkers()} {
		par := base
		par.Workers = workers
		gotTable, gotResults := Figure6(par)

		if gotTable != wantTable {
			t.Errorf("Figure6 table differs between workers=1 and workers=%d:\n--- serial ---\n%s--- parallel ---\n%s",
				workers, wantTable, gotTable)
		}
		if len(gotResults) != len(wantResults) {
			t.Fatalf("workers=%d: result count differs: %d vs %d", workers, len(gotResults), len(wantResults))
		}
		for i := range wantResults {
			w, g := wantResults[i], gotResults[i]
			if g.App != w.App || g.Kind != w.Kind || g.Clients != w.Clients {
				t.Errorf("workers=%d: result %d cell order differs: got (%s,%v,%d), want (%s,%v,%d)",
					workers, i, g.App, g.Kind, g.Clients, w.App, w.Kind, w.Clients)
			}
			if g.MeanLatencyMS != w.MeanLatencyMS || g.LossRate != w.LossRate {
				t.Errorf("workers=%d: result %d stats differ: got (%v,%v), want (%v,%v)",
					workers, i, g.MeanLatencyMS, g.LossRate, w.MeanLatencyMS, w.LossRate)
			}
		}
	}
}
