// Command instaplcd runs the InstaPLC failover scenario (§4) and prints
// Fig. 5: packets per 50 ms from both vPLCs and towards the I/O device,
// around a mid-run crash of the primary controller.
//
// Usage:
//
//	instaplcd [-seed N] [-cycle D] [-fail D] [-horizon D] [-baseline]
//	          [-faults SPEC] [-chaos] [-workers N] [-shards N]
//	          [-checkpoint FILE] [-checkpoint-every D] [-resume FILE]
//	          [-trace FILE] [-stats] [-cpuprofile FILE]
//	          [-int FILE] [-slo SPEC] [-flightrec FILE]
//	          [-obs-addr ADDR] [-obs-linger D]
//
// -faults replaces the default crash with a declarative fault plan,
// e.g. "hoststall:vplc1@1.3s+400ms,loss:dp.2@0.5s+1s*0.2"; the run
// prints the executed fault trace next to the figure. -chaos sweeps
// randomized fault plans of increasing intensity over the scenario.
// -checkpoint writes a replay-anchored checkpoint of the single run
// every -checkpoint-every of simulated time; -resume restarts from such
// a file. The -chaos sweep keeps no checkpoint: -chaos with -checkpoint
// or -resume is a usage error.
// -trace exports the frame lifecycle (and fault spans) as JSONL plus a
// Chrome/Perfetto timeline; -stats prints the component metrics
// snapshot. -int stamps vPLC heartbeats with in-band telemetry at the
// data plane and exports the per-path digests (failover appears as a
// path change with its gap measured in-band); -slo watches objectives
// like "latency:dp.out2<1ms" over those observations and logs
// breaches; -flightrec dumps the bounded flight recorder after the
// run. Under -chaos, -trace, -int and -flightrec merge per-cell buffers
// (the sweep stays parallel, artifacts byte-identical at any -workers)
// while -stats, -obs-addr and -slo feed live sinks and run it serially.
// -shards is another spelling of -workers, the parallelism knob the
// steelnet commands share; the output is byte-identical for any value.
// -obs-addr serves live Prometheus metrics, SSE breach events and pprof
// over HTTP during the run (-obs-linger keeps the server up
// afterwards); the URL goes to stderr and stdout is unchanged.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"steelnet/internal/checkpoint"
	"steelnet/internal/cli"
	"steelnet/internal/core"
	"steelnet/internal/faults"
	"steelnet/internal/instaplc"
	"steelnet/internal/sim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	return cli.Main("instaplcd", cli.Workers|cli.SimTelemetry, args, stdout, stderr, command)
}

// command registers instaplcd's own flags and returns its body.
func command(fs *flag.FlagSet) func(*cli.Env) error {
	seed := fs.Uint64("seed", 1, "experiment seed")
	cycle := fs.Duration("cycle", 1600*time.Microsecond, "IO cycle time")
	fail := fs.Duration("fail", 1300*time.Millisecond, "when the primary vPLC crashes")
	horizon := fs.Duration("horizon", 3*time.Second, "simulated time span")
	wd := fs.Int("watchdog", 2, "InstaPLC data-plane watchdog in cycles")
	baseline := fs.Bool("baseline", false, "disable InstaPLC (plain L2 switch) for comparison")
	faultSpec := fs.String("faults", "", "fault plan spec replacing the default crash (kind:target@at[+dur][*mag],...)")
	chaos := fs.Bool("chaos", false, "sweep randomized fault plans over the scenario")
	ckpt := fs.String("checkpoint", "", "write periodic checkpoints to this `file` (resume later with -resume)")
	resume := fs.String("resume", "", "resume from this checkpoint `file` and keep checkpointing to it")
	every := fs.Duration("checkpoint-every", 500*time.Millisecond, "simulated time between periodic checkpoints")
	return func(env *cli.Env) error {
		if *wd < 1 {
			return cli.Usagef("bad -watchdog %d: want at least 1 cycle", *wd)
		}
		if *every <= 0 {
			return cli.Usagef("bad -checkpoint-every %v: want a positive interval", *every)
		}
		stdout := env.Stdout
		cfg := instaplc.DefaultExperimentConfig()
		cfg.Seed = *seed
		cfg.Cycle = *cycle
		cfg.FailAt = *fail
		cfg.Horizon = *horizon
		cfg.InstaWatchdogCycles = *wd
		cfg.DisableInstaPLC = *baseline
		cfg.Sinks = env.Tel.Sinks()
		cfg.INT = cfg.Collector != nil

		if *chaos {
			if *ckpt != "" || *resume != "" {
				return cli.Usagef("-checkpoint and -resume apply to a single run, not to -chaos")
			}
			ccfg := core.DefaultChaosConfig()
			ccfg.Seed = *seed
			ccfg.Base = cfg
			ccfg.Workers = env.Workers
			cells, err := core.RunChaosSweep(ccfg)
			if err != nil {
				return err
			}
			fmt.Fprint(stdout, core.RenderChaosSweep(cells))
			return nil
		}

		if *faultSpec != "" {
			plan, err := faults.ParsePlan(*faultSpec)
			if err != nil {
				return cli.Usagef("%v", err)
			}
			cfg.Faults = &plan
		}

		// With -resume the recorded configuration wins: the restore
		// replays it into cfg's sinks up to the checkpointed instant and
		// verifies the state digest, and the run keeps checkpointing to
		// the same file. A fault plan that does not fit the scenario
		// comes back as the constructor's error.
		var h *instaplc.Harness
		var err error
		if *resume != "" {
			// A typo'd resume path must not silently start a fresh run.
			f, oerr := os.Open(*resume)
			if oerr != nil {
				return cli.Usagef("-resume: %v", oerr)
			}
			defer f.Close()
			h, err = instaplc.RestoreWith(f, cfg.Sinks)
			*ckpt = *resume
		} else {
			h, err = instaplc.BuildHarness(cfg)
		}
		if err != nil {
			return err
		}
		if err := advanceWithCheckpoints(h, *ckpt, *every); err != nil {
			return fmt.Errorf("-checkpoint: %w", err)
		}
		r := h.Result()

		fmt.Fprint(stdout, instaplc.RenderFigure5(r))
		if *faultSpec != "" {
			fmt.Fprintf(stdout, "\nfault trace (plan %q):\n%s", *faultSpec, r.FaultTrace)
		}
		fmt.Fprintf(stdout, "\nswitchovers=%d absorbed-by-twin=%d failsafe-events=%d final-device-state=%v io-availability=%.4f\n",
			r.Switchovers, r.AbsorbedFrames, r.FailsafeEvents, r.DeviceState, r.IOAvailability)
		if cfg.INT {
			fmt.Fprintf(stdout, "int: %d in-band observations, %d path change(s)\n", r.INTObservations, len(r.PathChanges))
			for _, pc := range r.PathChanges {
				if pc.From == "" {
					continue // a flow's first path is not a failover
				}
				fmt.Fprintf(stdout, "int: flow %d re-routed %s -> %s at t=%v (gap %v, %d silent)\n",
					pc.Flow, pc.From, pc.To, time.Duration(pc.AtNS), time.Duration(pc.GapNS), pc.Silent)
			}
		}
		if r.SwitchoverAt > 0 {
			if *faultSpec != "" {
				// A user plan may contain several failures; the delta against
				// the single default FailAt would be meaningless.
				fmt.Fprintf(stdout, "switchover completed at t=%v\n", r.SwitchoverAt)
			} else {
				fmt.Fprintf(stdout, "switchover completed %v after the failure\n", r.SwitchoverAt.Sub(r.FailAt))
			}
		}
		return nil
	}
}

// advanceWithCheckpoints runs the harness to its horizon; with a
// checkpoint path it advances in interval-sized slices of simulated
// time and saves after each. The saves come from outside the engine —
// scheduling them as simulation events would perturb the event queue
// and break the replay digest — and cut points are invisible to the
// simulation, so the checkpointed run is byte-identical to a straight
// one. Saves are atomic (temp file + rename): a crash mid-save leaves
// the previous checkpoint intact.
func advanceWithCheckpoints(h *instaplc.Harness, path string, interval time.Duration) error {
	if path == "" {
		h.AdvanceTo(h.Horizon())
		return nil
	}
	step := sim.Time(interval)
	for t := h.Engine().Now() + step; t < h.Horizon(); t += step {
		h.AdvanceTo(t)
		if err := checkpoint.WriteFileAtomic(path, h.Save); err != nil {
			return err
		}
	}
	h.AdvanceTo(h.Horizon())
	return checkpoint.WriteFileAtomic(path, h.Save)
}
