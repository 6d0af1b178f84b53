// Command gapminer reproduces the research-gap analysis (§1, Fig. 1):
// it mines the bundled synthetic SIGCOMM/HotNets proceedings for
// industrial-networking terminology and prints the occurrence counts,
// plus §2's requirement checks that motivate the gap.
//
// Usage:
//
//	gapminer [-seed N] [-requirements] [-cpuprofile FILE]
//
// gapminer moves no frames through a simulated network, so it takes
// none of the simulation commands' worker, checkpoint or telemetry
// flags; -cpuprofile profiles the mining itself.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"steelnet/internal/cli"
	"steelnet/internal/core"
	"steelnet/internal/corpus"
	"steelnet/internal/host"
	"steelnet/internal/trafficgen"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	return cli.Main("gapminer", 0, args, stdout, stderr, command)
}

// command registers gapminer's own flags and returns its body.
func command(fs *flag.FlagSet) func(*cli.Env) error {
	seed := fs.Uint64("seed", 1, "corpus shuffle seed (counts are seed-invariant)")
	requirements := fs.Bool("requirements", false, "also print the §2.1-§2.3 requirement checks")
	return func(env *cli.Env) error {
		stdout := env.Stdout
		table, counts := core.Figure1(*seed)
		fmt.Fprint(stdout, table)
		fmt.Fprintf(stdout, "research gap: smallest IT-side bar is %.0fx the largest OT-side bar\n\n", corpus.GapRatio(counts))

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
