// Command topobench runs the ML-aware topology study (§5) and prints
// Fig. 6: mean inference latency versus client count for the industrial
// ring, a leaf-spine, and the traffic-aware topology, for both the
// object-identification and defect-detection workloads.
//
// Usage:
//
//	topobench [-seed N] [-clients list] [-horizon D] [-workers N] [-shards N]
//	          [-campus] [-cells N] [-cell-switches N] [-cell-hosts N] [-spines N]
//	          [-checkpoint FILE] [-resume FILE]
//	          [-trace FILE] [-stats] [-cpuprofile FILE]
//	          [-int FILE] [-slo SPEC] [-flightrec FILE]
//	          [-obs-addr ADDR] [-obs-linger D]
//
// -trace exports the frame lifecycle of every cell as JSONL plus a
// Chrome/Perfetto timeline; -stats prints the component metrics
// snapshot. -int stamps camera requests with in-band telemetry and
// exports per-path digests; -slo watches objectives over those
// observations; -flightrec dumps the bounded flight recorder after
// the run. -trace, -int and -flightrec merge per-cell buffers: the grid
// stays parallel and every artifact is byte-identical at any -workers;
// -stats, -obs-addr and -slo feed live sinks and run the grid serially
// (large with default counts — prefer a single small cell, e.g.
// -clients 32). -checkpoint persists each completed grid cell; -resume
// restarts an interrupted grid from such a file, skipping finished
// cells — its telemetry covers only the cells it computed.
//
// -campus switches to the campus-scale sharded experiment: a
// spine-plus-cells plant network partitioned one shard per cell and
// executed on -shards worker goroutines under conservative
// window-barrier sync. The partition is derived from the topology, so
// the table (and -int/-slo exports) are byte-identical for every
// -shards value. A campus run keeps no checkpoint: -campus with
// -checkpoint or -resume is a usage error. In campus mode -int/-slo
// observe the cross-cell flows (sinks strip the telemetry per cell,
// merged in shard order).
//
// -obs-addr serves live observability over HTTP while the run is in
// flight: Prometheus metrics on /metrics, the per-shard coordinator
// profile as JSON on /shards, an SSE stream of metric deltas and SLO
// breaches on /events, liveness on /healthz, and net/http/pprof under
// /debug/pprof/. In campus mode the run publishes a snapshot after each
// of 64 equal slices of the horizon; the endpoint's URL goes to stderr
// and the run's stdout stays byte-identical to an unobserved run.
// -obs-linger keeps the server up after the run ends so a scrape or a
// human can catch the final snapshot.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"steelnet/internal/cli"
	"steelnet/internal/core"
	"steelnet/internal/mltopo"
	"steelnet/internal/sim"
	"steelnet/internal/topo"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	return cli.Main("topobench", cli.Simulation, args, stdout, stderr, command)
}

// command registers topobench's own flags and returns its body.
func command(fs *flag.FlagSet) func(*cli.Env) error {
	seed := fs.Uint64("seed", 1, "experiment seed")
	clients := fs.String("clients", "32,64,128,256", "comma-separated client counts")
	horizon := fs.Duration("horizon", 2*time.Second, "simulated time per cell")
	campus := fs.Bool("campus", false, "run the campus-scale sharded experiment instead of the Fig. 6 grid")
	cells := fs.Int("cells", 4, "campus: production cells (one shard each)")
	cellSwitches := fs.Int("cell-switches", 8, "campus: switches per cell tree")
	cellHosts := fs.Int("cell-hosts", 2, "campus: hosts per switch")
	spines := fs.Int("spines", 2, "campus: backbone spine switches")
	return func(env *cli.Env) error {
		if *horizon <= 0 {
			return cli.Usagef("bad -horizon %v: want a positive duration", *horizon)
		}
		for _, size := range []struct {
			flag string
			n    int
		}{{"cells", *cells}, {"cell-switches", *cellSwitches}, {"cell-hosts", *cellHosts}, {"spines", *spines}} {
			if size.n < 1 {
				return cli.Usagef("bad -%s %d: a campus needs at least 1", size.flag, size.n)
			}
		}
		tel := env.Tel
		if *campus {
			if env.Checkpoint != "" {
				return cli.Usagef("-checkpoint and -resume apply to the Fig. 6 grid, not to -campus")
			}
			return runCampus(core.CampusConfig{
				Seed: *seed,
				Topo: topo.CampusConfig{
					Cells:           *cells,
					SwitchesPerCell: *cellSwitches,
					HostsPerSwitch:  *cellHosts,
					Spines:          *spines,
				},
				Horizon: sim.Duration(horizon.Nanoseconds()),
				INT:     tel.Collector != nil,
				SLO:     tel.SLOSpec,
				Workers: env.Workers,
				// Observational knobs: the profiler rides -stats/-obs-addr,
				// per-shard tracing rides -trace, and the registry collects
				// whenever either asked.
				Profile: tel.Registry != nil,
				Trace:   tel.Tracer != nil,
				Metrics: tel.Registry,
			}, env)
		}

		counts, err := cli.ParseInts(*clients)
		if err != nil {
			return cli.Usagef("bad -clients: %v", err)
		}
		results, err := mltopo.RunFigure6Resumable(mltopo.Figure6Config{
			Seed: *seed, ClientCounts: counts, Horizon: *horizon,
			Workers: env.Workers,
			INT:     tel.Collector != nil, Sinks: tel.Sinks(),
		}, env.Checkpoint)
		if err != nil {
			return err
		}
		fmt.Fprint(env.Stdout, mltopo.RenderFigure6(results))
		var worst float64
		for _, r := range results {
			if r.LossRate > worst {
				worst = r.LossRate
			}
		}
		fmt.Fprintf(env.Stdout, "worst-case request loss across cells: %.3f\n", worst)
		return nil
	}
}

// runCampus builds the campus experiment, runs it to its horizon and
// prints its table.
func runCampus(cfg core.CampusConfig, env *cli.Env) error {
	h, err := core.NewCampusHarness(cfg)
	if err != nil {
		return fmt.Errorf("campus: %w", err)
	}
	tel := env.Tel
	if tel.Obs != nil {
		// Live publishing: advance the horizon in slices and publish a
		// snapshot at each safe point. Slicing never changes output —
		// the window grid is anchored to event content, not deadlines.
		const slices = 64
		start, end := int64(h.Now()), int64(h.Horizon())
		for i := int64(1); i <= slices; i++ {
			h.AdvanceTo(sim.Time(start + (end-start)*i/slices))
			if mw := h.MergedWatchdog(); mw != nil {
				tel.Obs.PublishBreaches(mw.Breaches())
			}
			tel.PublishObs(h.ShardProfile(), int64(h.Now()))
		}
	} else {
		h.Run()
	}
	result := h.Result()
	fmt.Fprint(env.Stdout, core.RenderCampus(result))
	if tel.Stats && h.Config().Profile {
		fmt.Fprint(env.Stdout, core.RenderShardProfile(h.ShardProfile()))
	}
	if tel.Tracer != nil {
		// Hand the stitched cross-shard timeline to the session tracer
		// so -trace exports one causal JSONL/Perfetto document.
		tel.Tracer.AbsorbEvents(h.MergedTrace())
	}
	// The campus collects per shard; End exports the merged views.
	if mc := h.MergedCollector(); mc != nil {
		tel.Collector = mc
	}
	if tel.Watchdog != nil {
		if mw := h.MergedWatchdog(); mw != nil {
			tel.Watchdog.Absorb(mw)
		}
	}
	return nil
}
