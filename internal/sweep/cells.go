package sweep

import (
	"fmt"
	"sort"

	intnet "steelnet/internal/int"
	"steelnet/internal/telemetry"
)

// Sinks are the telemetry sinks of an experiment, embedded in every
// experiment config: the tracer, the metrics registry and the INT
// collector it reports into, any of them nil when that telemetry is
// off. They are attachments, not scenario: no checkpoint encodes them
// and every restore takes fresh ones. The caller of a sweep hands
// RunCells its own; RunCells hands every cell the set that cell must
// report into.
type Sinks struct {
	Trace     *telemetry.Tracer
	Metrics   *telemetry.Registry
	Collector *intnet.Collector
}

// RunCells is the one driver every figure grid runs through. It
// evaluates cell(0) … cell(n-1) on workers goroutines (see Run) and
// returns the results in input order, identical for any worker count.
//
// weights, when non-nil, holds one relative cost estimate per cell (a
// different length panics). A pool of more than one worker starts the
// heaviest cells first (equal weights in index order), so the grid's
// longest cell is not left to run alone at the end. Only the starting
// order changes: results and the telemetry merge stay in input order,
// and a serial sweep runs in input order whatever the weights.
//
// Telemetry: a cell's frame ids and per-flow sequence numbers restart
// with its engine, so cells never share a tracer or a collector.
// Each cell gets private ones, merged into own.Trace and own.Collector
// in input cell order once the pool has drained — byte-identical at
// every worker count. Two kinds of sink cannot be merged after the
// fact: a shared Metrics registry, and a collector with a live OnSink
// subscriber (the SLO watchdog, which also stamps breach events into
// own.Trace off the running cell's clock). Either one forces the sweep
// serial and is fed live: cells then write own.Trace directly (each
// rebinds it to its engine) and their private collectors forward every
// observation to own.Collector.OnSink.
func RunCells[T any](workers, n int, weights []float64, own Sinks, cell func(i int, s Sinks) T) []T {
	if n <= 0 {
		return nil
	}
	var order []int
	if weights != nil {
		if len(weights) != n {
			panic(fmt.Sprintf("sweep: %d weights for %d cells", len(weights), n))
		}
		order = make([]int, n)
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool { return weights[order[a]] > weights[order[b]] })
	}
	live := own.Metrics != nil || (own.Collector != nil && own.Collector.OnSink != nil)
	if live {
		workers = 1
	}

	vals := make([]T, n)
	private := run(workers, n, order, func(i int) Sinks {
		s := Sinks{Metrics: own.Metrics}
		if live {
			s.Trace = own.Trace
		} else if own.Trace != nil {
			s.Trace = telemetry.NewTracer(nil) // the cell binds it to its engine
		}
		if own.Collector != nil {
			s.Collector = intnet.NewCollector()
			s.Collector.OnSink = own.Collector.OnSink
		}
		vals[i] = cell(i, s)
		return s
	})
	for _, s := range private {
		if !live {
			own.Trace.MergeFrom(s.Trace)
		}
		if s.Collector != nil {
			own.Collector.Absorb(s.Collector)
		}
	}
	return vals
}
