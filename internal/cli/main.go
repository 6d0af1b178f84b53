package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"runtime"
)

// Shared is a set of the flag groups Main adds to a command's own.
type Shared uint8

const (
	// Workers is -workers/-shards.
	Workers Shared = 1 << iota
	// SimTelemetry is what observes a simulated network: -trace,
	// -stats, -int, -slo, -flightrec, -obs-addr and -obs-linger.
	SimTelemetry
)

// Env is what Main hands a command's body: the shared flags, parsed,
// and the telemetry session, begun.
type Env struct {
	// Stdout is the command's standard output.
	Stdout io.Writer
	// Workers is -workers/-shards, resolved: 0 on the command line
	// becomes runtime.NumCPU(), so it is at least 1 (0 without the
	// group).
	Workers int
	// Tel is the telemetry session. Main ends it once the body returns
	// nil.
	Tel *Telemetry
}

// usageError marks an error as the user's: Main exits 2 on it.
type usageError struct{ error }

// Usagef reports a flag value the body could not accept.
func Usagef(format string, a ...any) error { return usageError{fmt.Errorf(format, a...)} }

// Main is the skeleton every experiment command runs in. setup registers
// the command's own flags on the flag set and returns its body; Main
// adds -cpuprofile and the shared groups the command takes, parses
// args, begins the telemetry session, runs the body and ends the
// session. It returns the exit code: 2 for a usage error — an unknown
// or malformed flag, a negative -workers, an artifact that cannot be
// written, a body error made with
// Usagef — and 1 for any other error of the body, each reported on
// stderr as "name: error".
func Main(name string, shared Shared, args []string, stdout, stderr io.Writer, setup func(*flag.FlagSet) func(*Env) error) int {
	fail := func(code int, err error) int {
		fmt.Fprintf(stderr, "%s: %v\n", name, err)
		return code
	}
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(io.Discard) // parse errors are reported here, under the prefix
	body := setup(fs)
	env := &Env{Stdout: stdout, Tel: registerTelemetryFlags(fs, shared&SimTelemetry != 0)}
	if shared&Workers != 0 {
		registerWorkersFlag(fs, &env.Workers)
	}
	if err := fs.Parse(args); err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fail(2, err)
		}
		fmt.Fprintf(stderr, "Usage of %s:\n", name)
		fs.SetOutput(stderr)
		fs.PrintDefaults()
		return 2
	}
	if shared&Workers != 0 {
		switch {
		case env.Workers < 0:
			return fail(2, fmt.Errorf("bad -workers %d: want 0 (NumCPU) or more", env.Workers))
		case env.Workers == 0:
			env.Workers = runtime.NumCPU()
		}
	}
	env.Tel.Out, env.Tel.Err = stdout, stderr
	if err := env.Tel.Begin(); err != nil {
		return fail(2, err)
	}
	if err := body(env); err != nil {
		if errors.As(err, &usageError{}) {
			return fail(2, err)
		}
		return fail(1, err)
	}
	if err := env.Tel.End(); err != nil {
		return fail(2, err)
	}
	return 0
}
