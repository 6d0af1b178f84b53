package core

import (
	"testing"

	"steelnet/internal/sim"
	"steelnet/internal/topo"
)

// bench7Config is the BENCH_7 scenario: a campus past the 10k-switch
// mark (32 cells x 313 switches = 10,016 cell switches plus 4 spines,
// one host per access switch), run for one millisecond of simulated
// time with the default cross-cell traffic share. One op builds the
// harness and runs it to the horizon, so the number covers
// construction, routing installation, and the full event volume. The
// generator goes much larger (10 hosts per switch passes the paper's
// 100k-host bar) but one such op costs ~6 s serial — too slow for the
// benchdiff sampling loop.
//
// The Shards1/2/4/8 ladder only shows parallel speedup on a multi-core
// machine (BENCH_15.json was recorded on two cores). The build is a
// fixed share of every rung; BenchmarkCampus10kBuild times it alone.
func bench7Config(workers int) CampusConfig {
	return CampusConfig{
		Seed: 7,
		Topo: topo.CampusConfig{
			Cells:           32,
			SwitchesPerCell: 313,
			HostsPerSwitch:  1,
			Spines:          4,
		},
		Horizon: 1 * sim.Millisecond,
		Period:  250 * sim.Microsecond,
		Workers: workers,
	}
}

func benchCampus(b *testing.B, workers int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h, err := NewCampusHarness(bench7Config(workers))
		if err != nil {
			b.Fatal(err)
		}
		h.Run()
		if h.Result().Accounting.Delivered == 0 {
			b.Fatal("campus run delivered nothing")
		}
	}
}

// BenchmarkCampus10kBuild is the build phase alone: topology, equipment
// on 33 shards, constructive routing and armed traffic sources.
func BenchmarkCampus10kBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewCampusHarness(bench7Config(1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCampus10kShards1(b *testing.B) { benchCampus(b, 1) }
func BenchmarkCampus10kShards2(b *testing.B) { benchCampus(b, 2) }
func BenchmarkCampus10kShards4(b *testing.B) { benchCampus(b, 4) }
func BenchmarkCampus10kShards8(b *testing.B) { benchCampus(b, 8) }
