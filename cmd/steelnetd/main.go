// Command steelnetd is the multi-simulation gateway daemon: it hosts
// many concurrent steelnet runs behind one HTTP surface and routes rule
// firings to northbound backends, the way the paper's IT-style plant
// network serves many consumers from one telemetry substrate.
//
// Usage:
//
//	steelnetd -listen :8080 [-max-concurrent N] [-publish-log PREFIX]
//	          [-journal-log FILE] [-trace FILE] [-run SPEC.json]... [-wait]
//
// Runs start via POST /runs with a JSON run spec, or at boot with -run
// (repeatable; inline JSON or an @file path). Each run's telemetry is
// served under /runs/{id}/{metrics,shards,history,events}; the
// fleet-wide SSE fan-out is /events; the lifecycle audit journal is
// /journal (and, with -journal-log, dumped to FILE on shutdown);
// fake-backend publish logs are browsable under /backends/{name}/log
// and, with -publish-log, dumped to PREFIX.<backend>.jsonl on shutdown.
// -trace enables gateway tracing and writes the stitched Chrome/
// Perfetto fleet trace to FILE on shutdown. -wait exits when the boot
// runs finish instead of serving until SIGINT/SIGTERM.
//
// A quick rule example — page when any sink's loss crosses 1%:
//
//	steelnetd -listen :8080 \
//	  -run '{"id":"mill","run":{"seed":1,"horizon":3000000000},"rules":"loss:*>0.01->kafka:alerts"}'
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"steelnet/internal/cli"
	"steelnet/internal/steelnetd"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil)) }

// run is the testable daemon body. ready, when non-nil, receives the
// bound server once it is listening and every boot run has started;
// closing the server then shuts the daemon down (tests use this instead
// of signals).
func run(args []string, stdout, stderr io.Writer, ready chan<- *steelnetd.Server) int {
	fs := flag.NewFlagSet("steelnetd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listen := fs.String("listen", ":8080", "gateway listen address (empty: no HTTP, -run/-wait only)")
	maxConc := fs.Int("max-concurrent", 0, "max runs stepping at once (0 = unlimited)")
	logPrefix := fs.String("publish-log", "", "dump fake-backend publish logs to PREFIX.<backend>.jsonl on shutdown")
	journalLog := fs.String("journal-log", "", "dump the run-lifecycle journal (JSONL) to FILE on shutdown")
	traceFile := fs.String("trace", "", "enable gateway tracing and write the Chrome/Perfetto fleet trace to FILE on shutdown")
	wait := fs.Bool("wait", false, "exit when the -run specs finish instead of serving until a signal")
	var specs []string
	fs.Func("run", "run spec to start at boot: inline JSON or @file (repeatable)", func(v string) error {
		specs = append(specs, v)
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *maxConc < 0 {
		fmt.Fprintf(stderr, "steelnetd: bad -max-concurrent %d: want 0 (unlimited) or more\n", *maxConc)
		return 2
	}
	if *listen == "" && len(specs) == 0 {
		fmt.Fprintln(stderr, "steelnetd: nothing to do: no -listen and no -run")
		return 2
	}

	backends := steelnetd.DefaultBackends(stdout)
	g := steelnetd.NewGateway(steelnetd.GatewayConfig{Backends: backends, MaxConcurrent: *maxConc, Trace: *traceFile != ""})
	defer g.Close()

	var srv *steelnetd.Server
	if *listen != "" {
		var err error
		srv, err = steelnetd.Listen(*listen, g)
		if err != nil {
			fmt.Fprintf(stderr, "steelnetd: %v\n", err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "steelnetd: serving http://%s/ (runs: /runs, fleet SSE: /events)\n", srv.Addr())
	}

	ids := make([]string, 0, len(specs))
	for _, raw := range specs {
		body, err := loadSpec(raw)
		if err != nil {
			fmt.Fprintf(stderr, "steelnetd: -run: %v\n", err)
			return 2
		}
		var spec steelnetd.RunSpec
		if err := json.Unmarshal(body, &spec); err != nil {
			fmt.Fprintf(stderr, "steelnetd: -run: bad spec: %v\n", err)
			return 2
		}
		id, err := g.Start(spec)
		if err != nil {
			fmt.Fprintf(stderr, "steelnetd: -run: %v\n", err)
			return 2
		}
		fmt.Fprintf(stderr, "steelnetd: started run %q\n", id)
		ids = append(ids, id)
	}
	if ready != nil {
		ready <- srv
	}

	if *wait {
		for _, id := range ids {
			if err := g.Wait(id); err != nil {
				fmt.Fprintf(stderr, "steelnetd: run %q: %v\n", id, err)
				return 1
			}
		}
	} else {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sig)
		if srv != nil {
			select {
			case s := <-sig:
				fmt.Fprintf(stderr, "steelnetd: %v, shutting down\n", s)
			case <-srv.Done():
			}
		} else {
			fmt.Fprintf(stderr, "steelnetd: %v, shutting down\n", <-sig)
		}
	}

	// Stop the fleet before dumping: WriteTrace only reads finished
	// runs' tracers, and a settled journal dump includes every run's
	// terminal record. Close is idempotent — the deferred one is a no-op.
	g.Close()
	if *logPrefix != "" {
		for _, name := range g.BackendNames() {
			p, _ := g.Backend(name)
			f, ok := p.(*steelnetd.FakeBackend)
			if !ok {
				continue
			}
			path := *logPrefix + "." + name + ".jsonl"
			if err := cli.WriteFile(path, f.WriteLog); err != nil {
				fmt.Fprintf(stderr, "steelnetd: -publish-log: %v\n", err)
				return 1
			}
			fmt.Fprintf(stderr, "steelnetd: wrote %s\n", path)
		}
	}
	if *journalLog != "" {
		if err := cli.WriteFile(*journalLog, g.Journal().WriteLog); err != nil {
			fmt.Fprintf(stderr, "steelnetd: -journal-log: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "steelnetd: wrote %s\n", *journalLog)
	}
	if *traceFile != "" {
		if err := cli.WriteFile(*traceFile, g.WriteTrace); err != nil {
			fmt.Fprintf(stderr, "steelnetd: -trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "steelnetd: wrote %s\n", *traceFile)
	}
	return 0
}

// loadSpec resolves a -run value: "@path" reads the file, anything else
// is inline JSON.
func loadSpec(v string) ([]byte, error) {
	if strings.HasPrefix(v, "@") {
		return os.ReadFile(v[1:])
	}
	return []byte(v), nil
}
