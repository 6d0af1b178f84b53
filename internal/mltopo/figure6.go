package mltopo

import (
	"fmt"

	"steelnet/internal/metrics"
	"steelnet/internal/mlwork"
	"steelnet/internal/sweep"
)

// Apps are the two Fig. 6 applications in panel order.
var Apps = []mlwork.Profile{mlwork.ObjectIdentification, mlwork.DefectDetection}

// figure6Cell is one grid coordinate of the sweep.
type figure6Cell struct {
	app     mlwork.Profile
	clients int
	kind    Kind
}

// cost estimates the cell's work, in thousands of engine events per
// simulated second, from where it sits in the grid. A ring frame
// crosses a number of switches that grows with the ring, so a ring
// cell's events grow with clients squared; the two tree shapes have
// fixed path lengths and grow with clients (coefficients read off the
// per-cell table in EXPERIMENTS.md). The sweep only ranks cells by it:
// the two Ring/256 cells, two thirds of the grid's work, start first.
func (c figure6Cell) cost() float64 {
	n := float64(c.clients)
	switch c.kind {
	case Ring:
		return 0.26 * n * n
	case LeafSpine:
		return 7.4 * n
	default:
		return 1.7 * n
	}
}

// figure6Grid expands the config into the cell list (app-major,
// kind-minor order).
func figure6Grid(cfg Figure6Config) []figure6Cell {
	if len(cfg.ClientCounts) == 0 {
		cfg.ClientCounts = DefaultFigure6Config().ClientCounts
	}
	cells := make([]figure6Cell, 0, len(Apps)*len(cfg.ClientCounts)*len(Kinds))
	for _, app := range Apps {
		for _, clients := range cfg.ClientCounts {
			for _, kind := range Kinds {
				cells = append(cells, figure6Cell{app: app, clients: clients, kind: kind})
			}
		}
	}
	return cells
}

// RunFigure6Resumable sweeps apps × topologies × client counts and
// returns all cells, in app-major, kind-minor order. Each cell is an
// independent scenario with its own engine, so the grid runs across
// cfg.Workers goroutines, costliest cells started first; results merge
// in the same order as a serial sweep, and the rendered panels are
// byte-identical for any worker count. Which telemetry sinks merge per
// cell and which force the grid serial is decided by sweep.RunCells.
// With a path, completed cells persist there and are skipped when the
// sweep is restarted with the same configuration.
func RunFigure6Resumable(cfg Figure6Config, path string) ([]Result, error) {
	cells := figure6Grid(cfg)
	costs := make([]float64, len(cells))
	for i, c := range cells {
		costs[i] = c.cost()
	}
	ck := sweep.Checkpointer[Result]{Path: path, Kind: "figure6", Walk: WalkResult}
	return sweep.RunCells(cfg.Workers, len(cells), costs, ck, cfg.Sinks, func(i int, s sweep.Sinks) Result {
		c := cells[i]
		sc := DefaultScenario(c.kind, c.app, c.clients)
		sc.Seed = cfg.Seed
		if cfg.Horizon > 0 {
			sc.Horizon = cfg.Horizon
		}
		sc.Sinks = s
		sc.INT = cfg.INT
		return Run(sc)
	})
}

// RunFigure6 is RunFigure6Resumable without a checkpoint.
func RunFigure6(cfg Figure6Config) []Result {
	results, _ := RunFigure6Resumable(cfg, "") // no path: no file I/O, no error
	return results
}

// Cell finds the result for (app, kind, clients), or false.
func Cell(results []Result, app string, kind Kind, clients int) (Result, bool) {
	for _, r := range results {
		if r.App == app && r.Kind == kind && r.Clients == clients {
			return r, true
		}
	}
	return Result{}, false
}

// RenderFigure6 renders the sweep as the paper's two panels.
func RenderFigure6(results []Result) string {
	var out string
	for _, app := range Apps {
		t := metrics.NewTable(
			fmt.Sprintf("Figure 6 (%s): mean inference latency (ms)", app.Name),
			"clients", Ring.String(), LeafSpine.String(), MLAware.String())
		counts := map[int]bool{}
		var order []int
		for _, r := range results {
			if r.App == app.Name && !counts[r.Clients] {
				counts[r.Clients] = true
				order = append(order, r.Clients)
			}
		}
		for _, n := range order {
			row := []string{fmt.Sprintf("%d", n)}
			for _, kind := range []Kind{Ring, LeafSpine, MLAware} {
				if r, ok := Cell(results, app.Name, kind, n); ok {
					row = append(row, fmt.Sprintf("%.2f", r.MeanLatencyMS))
				} else {
					row = append(row, "-")
				}
			}
			t.AddRow(row...)
		}
		out += t.String()
	}
	return out
}
