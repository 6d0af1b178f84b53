package sweep

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"steelnet/internal/checkpoint"
	intnet "steelnet/internal/int"
	"steelnet/internal/telemetry"
)

// Checkpointer describes how a sweep persists completed cells so an
// interrupted run can resume without recomputing them. The file is a
// standard checkpoint container (see internal/checkpoint) whose single
// section holds every finished cell's index and encoded result.
type Checkpointer[T any] struct {
	// Path is the checkpoint file, rewritten after every newly computed
	// cell. Empty disables checkpointing: nothing is read or written and
	// RunCells cannot fail.
	Path string
	// Kind tags the file ("figure4-delay", "figure6", …); resuming
	// with a mismatched kind or cell count fails loudly rather than
	// silently mixing results from different sweeps.
	Kind string
	// Walk is one cell result's field list (see checkpoint.Codec).
	Walk func(c *checkpoint.Codec, v *T)
}

const sweepKindPrefix = "sweep/"

// Sinks are the telemetry sinks of an experiment, embedded in every
// experiment config: the tracer, the metrics registry and the INT
// collector it reports into, any of them nil when that telemetry is
// off. They are attachments, not scenario: no checkpoint encodes them
// and every restore takes fresh ones. The caller of a sweep hands
// RunCells its own; RunCells hands every computed cell the set that
// cell must report into.
type Sinks struct {
	Trace     *telemetry.Tracer
	Metrics   *telemetry.Registry
	Collector *intnet.Collector
}

// RunCells is the one driver every figure grid runs through. It
// evaluates cell(0) … cell(n-1) on workers goroutines (see Run) and
// returns the results in input order, identical for any worker count.
//
// weights, when non-nil, holds one relative cost estimate per cell. A
// pool of more than one worker starts the heaviest cells first (equal
// weights in index order), so the grid's longest cell is not left to
// run alone at the end. Only the starting order changes: results, the
// telemetry merge and the checkpoint file stay in input order, and a
// serial sweep runs in input order whatever the weights.
//
// With ck.Path set, cells already recorded in the file are not
// recomputed, and the file is rewritten atomically after every cell
// that is. Cells are pure functions of their index, so any resume
// point yields the same results; telemetry covers only the cells this
// call computed.
//
// Telemetry: a cell's frame ids and per-flow sequence numbers restart
// with its engine, so cells never share a tracer or a collector.
// Each computed cell gets private ones, merged into own.Trace and
// own.Collector in input cell order once the pool has drained —
// byte-identical at every worker count. Two kinds of sink cannot be
// merged after the fact: a shared Metrics registry, and a collector
// with a live OnSink subscriber (the SLO watchdog, which also stamps
// breach events into own.Trace off the running cell's clock). Either
// one forces the sweep serial and is fed live: cells then write
// own.Trace directly (each rebinds it to its engine) and their private
// collectors forward every observation to own.Collector.OnSink.
func RunCells[T any](workers, n int, weights []float64, ck Checkpointer[T], own Sinks, cell func(i int, s Sinks) T) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	var order []int
	if weights != nil {
		if len(weights) != n {
			return nil, fmt.Errorf("sweep: %d weights for %d cells", len(weights), n)
		}
		order = make([]int, n)
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool { return weights[order[a]] > weights[order[b]] })
	}
	vals, have := make([]T, n), make([]bool, n)
	if ck.Path != "" {
		if ck.Walk == nil {
			return nil, errors.New("sweep: Checkpointer needs a Walk")
		}
		if err := loadCells(ck, vals, have); err != nil {
			return nil, err
		}
	}
	live := own.Metrics != nil || (own.Collector != nil && own.Collector.OnSink != nil)
	if live {
		workers = 1
	}

	// One mutex serializes the finished-cell set and the file writes:
	// cells complete on sweep worker goroutines, and an atomic rename
	// alone would not stop an older snapshot overwriting a newer one.
	var (
		mu      sync.Mutex
		saveErr error
	)
	private := run(workers, n, order, func(i int) Sinks {
		if have[i] {
			return Sinks{}
		}
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
		v := cell(i, s)
		mu.Lock()
		vals[i], have[i] = v, true
		if ck.Path != "" && saveErr == nil {
			saveErr = saveCells(ck, vals, have)
		}
		mu.Unlock()
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
	if saveErr != nil {
		return nil, saveErr
	}
	return vals, nil
}

// loadCells fills vals/have from the cells recorded in ck.Path. A
// missing file records none (a fresh run); a file from a different
// sweep shape is an error.
func loadCells[T any](ck Checkpointer[T], vals []T, have []bool) error {
	f, err := os.Open(ck.Path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	file, err := checkpoint.Read(f)
	if err != nil {
		return fmt.Errorf("sweep: reading %s: %w", ck.Path, err)
	}
	if want := sweepKindPrefix + ck.Kind; file.Kind != want {
		return fmt.Errorf("sweep: %s is a %q checkpoint, want %q", ck.Path, file.Kind, want)
	}
	sec, ok := file.Section("cells")
	if !ok {
		return fmt.Errorf("sweep: %s has no cells section", ck.Path)
	}
	d := checkpoint.NewDecoder(sec)
	if cells := d.Int(); cells != len(vals) {
		return fmt.Errorf("sweep: %s records a %d-cell sweep, this run has %d", ck.Path, cells, len(vals))
	}
	c := d.Codec()
	for count := d.Int(); count > 0 && d.Err() == nil; count-- {
		idx := d.Int()
		var v T
		ck.Walk(c, &v)
		if idx < 0 || idx >= len(vals) {
			return fmt.Errorf("sweep: %s records cell %d of a %d-cell sweep", ck.Path, idx, len(vals))
		}
		vals[idx], have[idx] = v, true
	}
	if err := d.Finish(); err != nil {
		return fmt.Errorf("sweep: %s: %w", ck.Path, err)
	}
	return nil
}

// saveCells atomically rewrites ck.Path with every finished cell, in
// index order.
func saveCells[T any](ck Checkpointer[T], vals []T, have []bool) error {
	e := checkpoint.NewEncoder()
	e.Int(len(vals))
	count := 0
	for _, h := range have {
		if h {
			count++
		}
	}
	e.Int(count)
	c := e.Codec()
	for i, h := range have {
		if h {
			e.Int(i)
			ck.Walk(c, &vals[i])
		}
	}
	return checkpoint.WriteFileAtomic(ck.Path, func(w io.Writer) error {
		return checkpoint.Write(w, sweepKindPrefix+ck.Kind, []checkpoint.Section{{Name: "cells", Data: e.Data()}})
	})
}
