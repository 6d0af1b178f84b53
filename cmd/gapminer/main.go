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
	fs := flag.NewFlagSet("gapminer", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 1, "corpus shuffle seed (counts are seed-invariant)")
	requirements := fs.Bool("requirements", false, "also print the §2.1-§2.3 requirement checks")
	workers := cli.RegisterWorkersFlagOn(fs, 1)
	res := cli.RegisterResumeFlagsOn(fs)
	tel := cli.RegisterTelemetryFlagsOn(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	tel.Out = stdout
	tel.Err = stderr
	if err := tel.Begin("gapminer"); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	ckptPath, err := res.Path()
	if err != nil {
		fmt.Fprintf(stderr, "gapminer: %v\n", err)
		return 2
	}

	table, counts, err := figure1(*seed, ckptPath, *workers)
	if err != nil {
		fmt.Fprintf(stderr, "gapminer: %v\n", err)
		return 1
	}
	fmt.Fprint(stdout, table)
	fmt.Fprintf(stdout, "research gap: smallest IT-side bar is %.0fx the largest OT-side bar\n\n", corpus.GapRatio(counts))

	if *requirements {
		fmt.Fprint(stdout, core.RenderTimingCheck(core.Section21TimingCheck(host.PreemptRT, *seed, 20000)))
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, core.RenderAvailability(core.RunAvailabilityComparison(core.DefaultAvailabilityConfig())))
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, core.RenderTrafficMix(core.Section23TrafficMix(*seed, trafficgen.DefaultMix)))
	}
	if err := tel.End(); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	return 0
}

// figure1Result is the cached form of the mined figure.
type figure1Result struct {
	Table  string
	Counts []corpus.Count
}

// figure1 mines Fig. 1, optionally through a one-cell resumable sweep:
// with a checkpoint path the mined counts persist, and a resumed run
// reprints without re-mining.
func figure1(seed uint64, ckptPath string, workers int) (string, []corpus.Count, error) {
	ck := sweep.Checkpointer[figure1Result]{
		Path: ckptPath,
		Kind: "figure1",
		Encode: func(e *checkpoint.Encoder, r figure1Result) {
			e.Str(r.Table)
			e.Int(len(r.Counts))
			for _, c := range r.Counts {
				e.Str(c.Label)
				e.Int(c.Occurrences)
			}
		},
		Decode: func(d *checkpoint.Decoder) figure1Result {
			r := figure1Result{Table: d.Str()}
			n := d.Int()
			for i := 0; i < n && d.Err() == nil; i++ {
				r.Counts = append(r.Counts, corpus.Count{Label: d.Str(), Occurrences: d.Int()})
			}
			return r
		},
	}
	out, err := sweep.RunCells(workers, 1, nil, ck, sweep.Sinks{}, func(int, sweep.Sinks) figure1Result {
		table, counts := core.Figure1(seed)
		return figure1Result{Table: table, Counts: counts}
	})
	if err != nil {
		return "", nil, err
	}
	return out[0].Table, out[0].Counts, nil
}
