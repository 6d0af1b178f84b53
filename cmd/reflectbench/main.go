// Command reflectbench runs the Traffic Reflection experiment (§3) and
// prints Fig. 4: the delay CDF of the six eBPF/XDP program variants and
// the jitter CDF for increasing numbers of concurrent real-time flows.
//
// Usage:
//
//	reflectbench [-seed N] [-cycles N] [-cycle D] [-flows list]
//	             [-workers N] [-shards N] [-jitter-only] [-delay-only]
//	             [-checkpoint FILE] [-resume FILE]
//	             [-trace FILE] [-stats] [-cpuprofile FILE]
//	             [-int FILE] [-slo SPEC] [-flightrec FILE]
//	             [-obs-addr ADDR] [-obs-linger D]
//
// -trace exports the probe frames' lifecycle as JSONL plus a
// Chrome/Perfetto timeline; -stats prints the component metrics
// snapshot. -int stamps probe frames with in-band telemetry, exports
// the per-path digests and prints the per-hop latency-decomposition
// table; -slo watches objectives ("latency:refl<250us") over the
// in-band observations; -flightrec dumps the bounded flight recorder
// after the run. -trace, -int and -flightrec merge per-cell buffers:
// the sweeps stay parallel and every artifact is byte-identical at any
// -workers; -stats, -obs-addr and -slo feed live sinks and run the
// sweeps serially. -checkpoint persists each completed sweep cell;
// -resume restarts an interrupted sweep from such a file, skipping
// finished cells — its telemetry covers only the cells it computed (the
// delay and jitter sweeps use FILE and FILE.jitter respectively).
// -obs-addr serves live Prometheus metrics, SSE events and pprof over
// HTTP during the run (-obs-linger keeps the server up afterwards); the
// URL goes to stderr and stdout is unchanged.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"steelnet/internal/cli"
	"steelnet/internal/reflection"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	return cli.Main("reflectbench", 0, args, stdout, stderr, command)
}

// command registers reflectbench's own flags and returns its body.
func command(fs *flag.FlagSet) func(*cli.Env) error {
	seed := fs.Uint64("seed", 1, "experiment seed")
	cycles := fs.Int("cycles", 2000, "probe cycles per flow")
	cycle := fs.Duration("cycle", 2*time.Millisecond, "probe cycle time")
	flows := fs.String("flows", "1,25", "comma-separated flow counts for the jitter sweep")
	delayOnly := fs.Bool("delay-only", false, "run only the Fig. 4 (left) delay experiment")
	jitterOnly := fs.Bool("jitter-only", false, "run only the Fig. 4 (right) jitter sweep")
	return func(env *cli.Env) error {
		if *cycle <= 0 {
			return cli.Usagef("bad -cycle %v: must be positive", *cycle)
		}
		if *cycles < 1 {
			return cli.Usagef("bad -cycles %d: must be at least 1", *cycles)
		}
		stdout := env.Stdout
		cfg := reflection.DefaultConfig()
		cfg.Seed = *seed
		cfg.Cycles = *cycles
		cfg.Cycle = *cycle
		cfg.Workers = env.Workers
		cfg.Sinks = env.Tel.Sinks()
		cfg.INT = cfg.Collector != nil

		if !*jitterOnly {
			results, err := reflection.RunAllVariantsResumable(cfg, env.Checkpoint)
			if err != nil {
				return err
			}
			fmt.Fprint(stdout, reflection.DelayTable(results))
			for _, r := range results {
				if r.RingRecords > 0 {
					fmt.Fprintf(stdout, "  %s emitted %d ring-buffer records\n", r.Variant, r.RingRecords)
				}
			}
			fmt.Fprintln(stdout)
		}
		if !*delayOnly {
			counts, err := cli.ParseInts(*flows)
			if err != nil {
				return cli.Usagef("bad -flows: %v", err)
			}
			jitterPath := env.Checkpoint
			if jitterPath != "" && !*jitterOnly {
				// Both sweeps checkpoint: keep their files apart.
				jitterPath += ".jitter"
			}
			results, err := reflection.RunFlowSweepResumable(cfg, counts, jitterPath)
			if err != nil {
				return err
			}
			fmt.Fprint(stdout, reflection.JitterTable(results))
		}
		if cfg.INT {
			fmt.Fprint(stdout, reflection.DecompositionTable(cfg.Collector.Digests()))
		}
		return nil
	}
}
