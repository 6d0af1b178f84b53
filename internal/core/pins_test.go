package core

import (
	"testing"
	"time"

	"steelnet/internal/checkpoint"
	"steelnet/internal/instaplc"
	"steelnet/internal/mltopo"
	"steelnet/internal/mlwork"
	"steelnet/internal/mrp"
	"steelnet/internal/reflection"
	"steelnet/internal/sim"
	"steelnet/internal/sweep"
	"steelnet/internal/telemetry"
	"steelnet/internal/topo"
)

// counts is what a run costs in units that are the same on every
// machine — events the engines fired, frames that completed a link
// traversal, and messages that crossed a shard boundary — and the state
// digest it leaves at its horizon, which also folds what no event
// schedules on (counters, tables, queues, RNG positions).
type counts struct {
	events, delivered, messages uint64
	digest                      uint64
}

// linkDelivered sums every link's delivered counter on r.
func linkDelivered(r *telemetry.Registry) uint64 {
	var n uint64
	for _, v := range r.Values() {
		if v.Name == "steelnet_link_delivered_total" {
			n += uint64(v.Value)
		}
	}
	return n
}

func pinFig4() counts {
	cfg := reflection.DefaultConfig()
	cfg.Cycles = 50
	reg := telemetry.NewRegistry()
	cfg.Sinks = sweep.Sinks{Metrics: reg}
	h := reflection.NewHarness(cfg, reflection.NewTSOW())
	h.AdvanceTo(h.Horizon())
	return counts{events: h.Engine().EventsFired(), delivered: linkDelivered(reg), digest: h.Digest()}
}

func pinFig5() counts {
	cfg := instaplc.DefaultExperimentConfig()
	cfg.FailAt, cfg.Horizon = 250*time.Millisecond, 500*time.Millisecond
	reg := telemetry.NewRegistry()
	cfg.Sinks = sweep.Sinks{Metrics: reg}
	h := instaplc.NewHarness(cfg)
	h.AdvanceTo(h.Horizon())
	return counts{events: h.Engine().EventsFired(), delivered: linkDelivered(reg), digest: h.Digest()}
}

func pinFig6() counts {
	sc := mltopo.DefaultScenario(mltopo.LeafSpine, mlwork.ObjectIdentification, 8)
	sc.Horizon = 200 * time.Millisecond
	reg := telemetry.NewRegistry()
	sc.Sinks = sweep.Sinks{Metrics: reg}
	h := mltopo.NewHarness(sc)
	h.AdvanceTo(h.Horizon())
	return counts{events: h.Engine().EventsFired(), delivered: linkDelivered(reg), digest: h.Digest()}
}

func pinCampus(t *testing.T, workers int) counts {
	h, err := NewCampusHarness(CampusConfig{
		Topo:    topo.CampusConfig{Cells: 4, SwitchesPerCell: 6, HostsPerSwitch: 2, Spines: 2},
		Horizon: 5 * sim.Millisecond,
		INT:     true,
		Workers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.AdvanceTo(h.Horizon())
	g := h.Network().Group
	var c counts
	for i := range g.Shards() {
		c.events += g.Shard(i).EventsFired()
	}
	c.digest = h.Digest()
	res := h.Result()
	c.delivered, c.messages = res.Accounting.Delivered, res.Group.Messages
	return c
}

// pinMRP runs the ring experiment past its default link cut, as
// RunRingExperiment does.
func pinMRP(t *testing.T) counts {
	cfg := mrp.DefaultRingExperimentConfig()
	cfg.Horizon = 700 * time.Millisecond
	reg := telemetry.NewRegistry()
	cfg.Sinks = sweep.Sinks{Metrics: reg}
	h, err := mrp.NewHarness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.AdvanceTo(h.Horizon())
	return counts{events: h.Engine().EventsFired(), delivered: linkDelivered(reg), digest: h.Digest()}
}

// pinChaos runs each cell of a small chaos ladder the way the sweep
// does, from ChaosCellConfig, sums the cells' counts and folds their
// digests in cell order.
func pinChaos() counts {
	cfg := DefaultChaosConfig()
	cfg.Intensities, cfg.Trials = []int{0, 4, 8}, 1
	cfg.Base.SecondaryJoinAt = 100 * time.Millisecond
	cfg.Base.FailAt = 300 * time.Millisecond
	cfg.Base.Horizon = 800 * time.Millisecond
	var c counts
	d := checkpoint.NewDigest()
	for i := range len(cfg.Intensities) * cfg.Trials {
		h := instaplc.NewHarness(ChaosCellConfig(cfg, i))
		h.AdvanceTo(h.Horizon())
		c.events += h.Engine().EventsFired()
		d.U64(h.Digest())
		c.delivered += h.Result().Accounting.Delivered
	}
	c.digest = d.Sum()
	return c
}

// TestEventPins holds the exact cost and end state of each figure, the
// MRP ring, the campus and the chaos ladder at sizes tier-1 can afford.
// Wall time is noisy and differs across machines; these counts and
// digests do not. A change that moves one updates its row and says why,
// the way a golden is updated. The campus row is pinned at one worker
// and must be the same at four.
func TestEventPins(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(*testing.T) counts
		want counts
	}{
		{"fig4 TS-OW 50 cycles", func(*testing.T) counts { return pinFig4() }, counts{664, 204, 0, 0x20fca16867facee9}},
		{"fig5 500ms", func(*testing.T) counts { return pinFig5() }, counts{4289, 1477, 0, 0x3e9876e62666a6ae}},
		{"fig6 leaf-spine 8 clients 200ms", func(*testing.T) counts { return pinFig6() }, counts{11816, 4284, 0, 0xe3a96e26443a2149}},
		{"mrp ring 700ms", pinMRP, counts{10581, 3568, 0, 0xe66807b653a1cf3a}},
		{"campus 4x6x2 5ms 1 worker", func(t *testing.T) counts { return pinCampus(t, 1) }, counts{22560, 7360, 960, 0xced6284d1f3df93c}},
		{"campus 4x6x2 5ms 4 workers", func(t *testing.T) counts { return pinCampus(t, 4) }, counts{22560, 7360, 960, 0xced6284d1f3df93c}},
		{"chaos 3 cells 800ms", func(*testing.T) counts { return pinChaos() }, counts{22963, 7524, 0, 0x79d571273b046071}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.run(t)
			if got.events != tc.want.events || got.delivered != tc.want.delivered || got.messages != tc.want.messages {
				t.Errorf("events, delivered, messages = %d, %d, %d; pinned %d, %d, %d",
					got.events, got.delivered, got.messages, tc.want.events, tc.want.delivered, tc.want.messages)
			}
			if got.digest != tc.want.digest {
				t.Errorf("state digest at the horizon = %#x; pinned %#x", got.digest, tc.want.digest)
			}
		})
	}
}
