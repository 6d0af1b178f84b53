// Command gapminer reproduces the research-gap analysis (§1, Fig. 1):
// it mines the bundled synthetic SIGCOMM/HotNets proceedings for
// industrial-networking terminology and prints the occurrence counts,
// plus §2's requirement checks that motivate the gap.
//
// Usage:
//
//	gapminer [-seed N] [-requirements] [-shards N]
//	         [-checkpoint FILE] [-resume FILE]
//	         [-trace FILE] [-stats] [-cpuprofile FILE]
//	         [-int FILE] [-slo SPEC] [-flightrec FILE]
//	         [-obs-addr ADDR] [-obs-linger D]
//
// -checkpoint caches the mined Fig. 1 counts; -resume reprints from
// the cache without re-mining the corpus (the mining is the command's
// only substantial work). The telemetry flags are accepted for CLI
// uniformity: gapminer's analyses move no frames through the simulated
// network, so -trace yields an empty (but valid) timeline, -stats an
// empty snapshot, and -int/-slo/-flightrec empty (but valid) digest,
// breach-log and flight-recorder files, while -cpuprofile profiles the
// mining itself. -shards (or -workers) is likewise accepted for
// uniformity: the mining is a single sweep cell, so any value leaves the
// output unchanged.
// -obs-addr serves /metrics, /shards, /events, /healthz and
// /debug/pprof/ over HTTP while the command runs (-obs-linger keeps the
// server up afterwards); for gapminer only the pprof and liveness
// endpoints carry signal.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"steelnet/internal/checkpoint"
	"steelnet/internal/cli"
	"steelnet/internal/core"
	"steelnet/internal/corpus"
	"steelnet/internal/host"
	"steelnet/internal/sweep"
	"steelnet/internal/trafficgen"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	return cli.Main("gapminer", 1, args, stdout, stderr, command)
}

// command registers gapminer's own flags and returns its body.
func command(fs *flag.FlagSet) func(*cli.Env) error {
	seed := fs.Uint64("seed", 1, "corpus shuffle seed (counts are seed-invariant)")
	requirements := fs.Bool("requirements", false, "also print the §2.1-§2.3 requirement checks")
	return func(env *cli.Env) error {
		stdout := env.Stdout
		fig, err := figure1(*seed, env.Checkpoint, env.Workers)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, fig.Table)
		fmt.Fprintf(stdout, "research gap: smallest IT-side bar is %.0fx the largest OT-side bar\n\n", corpus.GapRatio(fig.Counts))

		if *requirements {
			fmt.Fprint(stdout, core.RenderTimingCheck(core.Section21TimingCheck(host.PreemptRT, *seed, 20000)))
			fmt.Fprintln(stdout)
			fmt.Fprint(stdout, core.RenderAvailability(core.RunAvailabilityComparison(core.DefaultAvailabilityConfig())))
			fmt.Fprintln(stdout)
			fmt.Fprint(stdout, core.RenderTrafficMix(core.Section23TrafficMix(*seed, trafficgen.DefaultMix)))
		}
		return nil
	}
}

// figure1Result is the cached form of the mined figure.
type figure1Result struct {
	Table  string
	Counts []corpus.Count
}

func walkFigure1(c *checkpoint.Codec, r *figure1Result) {
	c.Str(&r.Table)
	checkpoint.Slice(c, &r.Counts, func(c *checkpoint.Codec, n *corpus.Count) {
		c.Str(&n.Label)
		checkpoint.Int(c, &n.Occurrences)
	})
}

// figure1 mines Fig. 1, optionally through a one-cell resumable sweep:
// with a checkpoint path the mined counts persist, and a resumed run
// reprints without re-mining.
func figure1(seed uint64, ckptPath string, workers int) (figure1Result, error) {
	ck := sweep.Checkpointer[figure1Result]{Path: ckptPath, Kind: "figure1", Walk: walkFigure1}
	out, err := sweep.RunCells(workers, 1, nil, ck, sweep.Sinks{}, func(int, sweep.Sinks) figure1Result {
		table, counts := core.Figure1(seed)
		return figure1Result{Table: table, Counts: counts}
	})
	if err != nil {
		return figure1Result{}, err
	}
	return out[0], nil
}
