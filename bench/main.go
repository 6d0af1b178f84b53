// Command bench is steelnet's end-to-end and per-layer benchmark; see
// README.md in this directory and BENCHMARK.json at the repo root.
//
//	bench -workload W -seed N -seconds S -trace 0|1   one workload, as the driver runs it
//	bench -seed N                                      all four workloads, each in a child process
//	bench -seed N -trace spans.json                    the same, traced; spans written to the file
//	bench -selfcheck                                   the untraced suite twice, compared
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// params is what every workload run is given.
type params struct {
	seed    uint64
	seconds float64 // how long the run keeps measuring
	trace   bool
	workers int // W: simulator workers
	conns   int // C: load-generator connections
	start   time.Time
}

// more reports whether a workload should run another untraced rep:
// always up to minReps, then until the run has measured for p.seconds.
// A traced run needs two only — a cold one, and a warm one as the
// reference for its traced repeat.
func (p params) more(rep, minReps int) bool {
	if p.trace {
		return rep < 2
	}
	return rep < minReps || time.Since(p.start).Seconds() < p.seconds
}

// parallelism is min(nproc, 4): the generator connection count C and
// the simulator worker count W.
func parallelism() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// workload is one entry of the suite.
type workload struct {
	name string
	why  string
	run  func(p params) (*result, error)
}

var workloads = []workload{
	{"paper_figs", "what a reader of the paper runs: Fig. 4, 5 and 6 regenerated on single-engine event loops, no sharding and no gateway",
		func(p params) (*result, error) { return runFigs(figsFull, p) }},
	{"campus_10k", "the only workload where the shard group's windows, cross-shard links and topology and routing construction dominate; build and run are timed apart",
		func(p params) (*result, error) { return runCampus(campusFull, p) }},
	{"gateway_stream", "the gateway's write path over real loopback sockets: step, sample, publish, history, rules, hub, encode, socket; the simulator is a small share of it",
		func(p params) (*result, error) { return runStream(streamFull, p) }},
	{"gateway_query", "the gateway's layers used the other way round: history, metrics, journal and backend-log reads, closed loop when idle and open loop beside a live run",
		func(p params) (*result, error) { return runQuery(queryFull, p) }},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload in this process and print the driver's JSON line last (empty: all four, each in a child process)")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", defaultSeconds, "how long one workload run measures")
	trace := fs.String("trace", "0", "0: untraced, end-to-end metrics; 1: traced, per-layer metrics; any other value: traced, and the spans are written to that file")
	selfcheck := fs.Bool("selfcheck", false, "run the untraced suite twice and fail if an end-to-end metric differs by more than its bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	traced := *trace != "0"
	spanFile := ""
	if traced && *trace != "1" {
		spanFile = *trace
	}

	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		return runOne(w, *seed, *seconds, traced, spanFile, stdout, stderr)
	}
	if *selfcheck {
		return runSelfcheck(*seed, *seconds, stdout, stderr)
	}
	return runAll(*seed, *seconds, traced, spanFile, stdout, stderr)
}

// runOne measures one workload in this process. Standard output ends
// with the driver's JSON line; the readable report goes before it.
func runOne(w workload, seed uint64, seconds int, traced bool, spanFile string, stdout, stderr io.Writer) int {
	fmt.Fprintf(stdout, "steelnet bench: %s\n", newStamp(seed))
	calib, n := calibrate()
	c := parallelism()
	p := params{seed: seed, seconds: float64(seconds), trace: traced, workers: c, conns: c, start: time.Now()}
	res, err := w.run(p)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	res.set("bench.calib_ns", calib, n)
	res.set("peak_rss_mb", peakRSSMB(), 1)
	res.writeReport(stdout)
	if traced {
		writeBudget(stdout, w.name, res.spans, time.Duration(res.untracedWall*float64(time.Second)))
	}
	if spanFile != "" {
		if err := writeSpanFile(spanFile, res.spans); err != nil {
			fmt.Fprintf(stderr, "bench: -trace: %v\n", err)
			return 1
		}
	}
	for _, problem := range res.problems {
		fmt.Fprintf(stderr, "bench: CHECK FAILED: %s\n", problem)
	}
	line, err := res.driverLine()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	return 0
}

func writeSpanFile(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := writeSpans(w, spans); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// childResult is the driver line of one child process, parsed back.
type childResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runChild re-executes this binary for one workload, so heap history
// and peak RSS do not leak between workloads. The child's report is
// copied to out; its last line is parsed and returned.
func runChild(w workload, seed uint64, seconds int, trace string, out, stderr io.Writer) (childResult, error) {
	var cr childResult
	exe, err := os.Executable()
	if err != nil {
		return cr, err
	}
	cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", trace)
	cmd.Stderr = stderr
	b, err := cmd.Output()
	if err != nil {
		return cr, fmt.Errorf("%s: %w", w.name, err)
	}
	body := strings.TrimRight(string(b), "\n")
	last := body
	if i := strings.LastIndexByte(body, '\n'); i >= 0 {
		last = body[i+1:]
		fmt.Fprintln(out, body[:i])
	}
	if err := json.Unmarshal([]byte(last), &cr); err != nil {
		return cr, fmt.Errorf("%s: last line is not a result: %w", w.name, err)
	}
	return cr, nil
}

// runAll runs the four workloads one after another, each in a child
// process, and fails if any operation or output check failed.
func runAll(seed uint64, seconds int, traced bool, spanFile string, stdout, stderr io.Writer) int {
	code := 0
	var spans []span
	for _, w := range workloads {
		trace := "0"
		childSpans := ""
		if traced {
			trace = "1"
			if spanFile != "" {
				childSpans = spanFile + "." + w.name
				trace = childSpans
			}
		}
		cr, err := runChild(w, seed, seconds, trace, stdout, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		if !cr.Correct || cr.Failed > 0 {
			code = 1
		}
		if childSpans != "" {
			part, err := readSpanFile(childSpans)
			if err != nil {
				fmt.Fprintf(stderr, "bench: -trace: %v\n", err)
				return 1
			}
			// Parents index the child's own list; shift them to the
			// merged one.
			for i := range part {
				if part[i].Parent >= 0 {
					part[i].Parent += len(spans)
				}
			}
			spans = append(spans, part...)
			os.Remove(childSpans)
		}
	}
	if spanFile != "" {
		if err := writeSpanFile(spanFile, spans); err != nil {
			fmt.Fprintf(stderr, "bench: -trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %d spans to %s\n", len(spans), spanFile)
	}
	if code != 0 {
		fmt.Fprintln(stderr, "bench: FAILED: operations or output checks failed, see above")
	}
	return code
}

func readSpanFile(path string) ([]span, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spans []span
	if err := json.Unmarshal(b, &spans); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spans, nil
}

// runSelfcheck runs the untraced suite twice and prints, for every
// end-to-end metric of every workload, the relative difference between
// the two runs. It fails when one exceeds its bound or when the share
// of failed operations differs.
func runSelfcheck(seed uint64, seconds int, stdout, stderr io.Writer) int {
	var rounds [2]map[string]childResult
	for i := range rounds {
		rounds[i] = map[string]childResult{}
		for _, w := range workloads {
			cr, err := runChild(w, seed, seconds, "0", io.Discard, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
			rounds[i][w.name] = cr
		}
	}
	code := 0
	fmt.Fprintf(stdout, "selfcheck: %s\n", newStamp(seed))
	fmt.Fprintf(stdout, "%-16s %-14s %16s %16s %8s %6s\n", "workload", "metric", "run 1", "run 2", "diff", "bound")
	for _, w := range workloads {
		a, b := rounds[0][w.name], rounds[1][w.name]
		for _, d := range endToEnd {
			va, vb := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
			diff := relDiff(va, vb)
			verdict := ""
			if diff > bounds[d.Name] {
				verdict = "  EXCEEDS BOUND"
				code = 1
			}
			fmt.Fprintf(stdout, "%-16s %-14s %16.6f %16.6f %7.2f%% %5.0f%%%s\n",
				w.name, d.Name, va, vb, diff*100, bounds[d.Name]*100, verdict)
		}
		if a.Failed*b.Attempted != b.Failed*a.Attempted {
			fmt.Fprintf(stdout, "%-16s failed share differs: %d/%d vs %d/%d\n", w.name, a.Failed, a.Attempted, b.Failed, b.Attempted)
			code = 1
		}
	}
	return code
}
