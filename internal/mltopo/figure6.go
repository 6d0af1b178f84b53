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

// RunFigure6Checked sweeps apps × topologies × client counts and
// returns all cells, in app-major, kind-minor order. Each cell is an
// independent scenario with its own engine, so the grid runs across
// cfg.Workers goroutines, costliest cells started first; results merge
// in the same order as a serial sweep, and the rendered panels are
// byte-identical for any worker count. Which telemetry sinks merge per
// cell and which force the grid serial is decided by sweep.RunCells.
// Cells of one design share one plant, made before any cell runs. A
// client count no cell can be built from is an error, before anything
// is built.
func RunFigure6Checked(cfg Figure6Config) ([]Result, error) {
	scenarios, costs, err := figure6Scenarios(cfg)
	if err != nil {
		return nil, err
	}
	plants := figure6Plants(scenarios)
	return sweep.RunCells(cfg.Workers, len(scenarios), costs, cfg.Sinks, func(i int, s sweep.Sinks) Result {
		sc := scenarios[i]
		sc.Sinks = s
		h := newHarness(sc, plants[i])
		h.AdvanceTo(h.Horizon())
		return h.Result()
	}), nil
}

// figure6Scenarios expands the config into the checked scenario of
// each cell, in figure6Grid's order, with the cell's cost.
func figure6Scenarios(cfg Figure6Config) ([]Scenario, []float64, error) {
	cells := figure6Grid(cfg)
	scenarios := make([]Scenario, len(cells))
	costs := make([]float64, len(cells))
	for i, c := range cells {
		sc := DefaultScenario(c.kind, c.app, c.clients)
		sc.Seed = cfg.Seed
		if cfg.Horizon > 0 {
			sc.Horizon = cfg.Horizon
		}
		sc.INT = cfg.INT
		if err := checkScenario(sc); err != nil {
			return nil, nil, err
		}
		scenarios[i], costs[i] = sc, c.cost()
	}
	return scenarios, costs, nil
}

// figure6Plants designs each cell's plant, once per distinct design. A
// Ring or Leaf Spine plant depends on the client count alone (the grid
// holds ClientsPerServer fixed), so both apps share it; an ML-aware
// plant is dimensioned for its app's demand.
func figure6Plants(scenarios []Scenario) []plant {
	type design struct {
		kind    Kind
		clients int
		app     string
	}
	made := map[design]plant{}
	plants := make([]plant, len(scenarios))
	for i, sc := range scenarios {
		d := design{kind: sc.Kind, clients: sc.Clients}
		if sc.Kind == MLAware {
			d.app = sc.Profile.Name
		}
		pl, ok := made[d]
		if !ok {
			pl = newPlant(sc)
			made[d] = pl
		}
		plants[i] = pl
	}
	return plants
}

// RunFigure6 is RunFigure6Checked for a configuration the program
// wrote itself: a bad one is a bug, and panics.
func RunFigure6(cfg Figure6Config) []Result {
	results, err := RunFigure6Checked(cfg)
	if err != nil {
		panic(err.Error())
	}
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
