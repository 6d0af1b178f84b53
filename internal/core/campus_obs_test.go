package core

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"steelnet/internal/telemetry"
)

func runObservedCampus(t *testing.T, workers int) *CampusHarness {
	t.Helper()
	cfg := testCampusConfig(workers)
	cfg.Profile = true
	cfg.Trace = true
	h, err := NewCampusHarness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.Run()
	return h
}

// TestCampusCrossShardCausalTrace pins the tentpole property: a frame
// that crosses shards keeps one trace id end to end, its merged timeline
// reads causally (host-tx → forwards → cross-shard hop → deliver), the
// id's origin shard matches the recorded crossing, and the traced
// forwarding path agrees with the independent INT path digests.
func TestCampusCrossShardCausalTrace(t *testing.T) {
	h := runObservedCampus(t, 2)
	evs := h.MergedTrace()
	if len(evs) == 0 {
		t.Fatal("empty merged trace")
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].T < evs[i-1].T {
			t.Fatalf("merged trace not time-sorted at %d: %d after %d", i, evs[i].T, evs[i-1].T)
		}
	}

	type life struct {
		hostTx   string
		deliver  string
		forwards []string
		crossSrc []int
	}
	lives := map[uint64]*life{}
	var crossings int
	for _, e := range evs {
		if e.Frame == 0 {
			continue
		}
		l := lives[e.Frame]
		if l == nil {
			l = &life{}
			lives[e.Frame] = l
		}
		switch e.Kind {
		case telemetry.KindHostTx:
			l.hostTx = e.Node
		case telemetry.KindForward:
			l.forwards = append(l.forwards, e.Node)
		case telemetry.KindCrossShard:
			crossings++
			l.crossSrc = append(l.crossSrc, int(e.Aux>>32))
		case telemetry.KindDeliver:
			l.deliver = e.Node
		}
	}
	if crossings == 0 {
		t.Fatal("no cross-shard events in a cross-cell campus trace")
	}

	// The id's shard space is the origin shard: the first crossing a
	// frame makes must depart from exactly that shard.
	var crossFrames int
	for id, l := range lives {
		if len(l.crossSrc) == 0 {
			continue
		}
		crossFrames++
		if origin := telemetry.ShardOfFrameID(id); l.crossSrc[0] != origin {
			t.Fatalf("frame %#x: id space says shard %d, first crossing departs shard %d",
				id, origin, l.crossSrc[0])
		}
		if l.hostTx == "" || l.deliver == "" {
			t.Fatalf("cross frame %#x lifecycle incomplete: %+v (stitching lost events)", id, l)
		}
	}
	if crossFrames == 0 {
		t.Fatal("no frame completed a cross-shard lifecycle")
	}

	// Independent validation: every INT path digest (source, sink, hop
	// sequence) must be reproduced by some traced lifecycle.
	paths := map[string]bool{}
	for _, l := range lives {
		if l.hostTx != "" && l.deliver != "" {
			paths[l.hostTx+">"+strings.Join(l.forwards, ",")+">"+l.deliver] = true
		}
	}
	coll := h.MergedCollector()
	if coll == nil {
		t.Fatal("no merged collector")
	}
	digests := coll.Digests()
	if len(digests) == 0 {
		t.Fatal("no INT path digests")
	}
	for _, d := range digests {
		key := d.Source + ">" + strings.Join(d.Hops, ",") + ">" + d.Sink
		if !paths[key] {
			t.Fatalf("INT digest path %q has no matching traced lifecycle (have %d paths)", key, len(paths))
		}
	}
}

// TestCampusMergedTraceWorkerInvariant pins determinism of the stitched
// timeline: any worker count produces the byte-identical merged log.
func TestCampusMergedTraceWorkerInvariant(t *testing.T) {
	ref := runObservedCampus(t, 1).MergedTrace()
	got := runObservedCampus(t, 4).MergedTrace()
	if !reflect.DeepEqual(ref, got) {
		t.Fatalf("merged trace diverged across workers: %d vs %d events", len(ref), len(got))
	}
	// Profiling contributes window/barrier lanes to the merged stream.
	var windows, barriers int
	for _, e := range ref {
		switch e.Kind {
		case telemetry.KindShardWindow:
			windows++
		case telemetry.KindBarrier:
			barriers++
		}
	}
	if windows == 0 || barriers == 0 {
		t.Fatalf("merged trace has %d window spans, %d barriers; want both > 0", windows, barriers)
	}
}

// TestCampusObservabilityIsObservational pins the zero-interference
// contract at the harness level: profiling + tracing + metrics change no
// simulation state — the digest matches a bare run exactly.
func TestCampusObservabilityIsObservational(t *testing.T) {
	bare, _ := runCampus(t, 2)
	h := runObservedCampus(t, 2)
	if got, want := h.Digest(), bare.Digest(); got != want {
		t.Fatalf("observed digest %#x != bare %#x", got, want)
	}
	if h.ShardProfile().PerShard == nil {
		t.Fatal("profiled harness has no lanes")
	}
	if bare.ShardProfile().PerShard != nil {
		t.Fatal("bare harness grew lanes")
	}
	if bare.MergedTrace() != nil {
		t.Fatal("bare harness has a merged trace")
	}
}

func TestCampusRegisterMetrics(t *testing.T) {
	cfg := testCampusConfig(1)
	cfg.Profile = true
	cfg.Metrics = telemetry.NewRegistry()
	h, err := NewCampusHarness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.Run()
	var buf bytes.Buffer
	if err := cfg.Metrics.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, fam := range []string{
		`campus_cell_tx_frames_total{cell="0"}`,
		`campus_cell_rx_frames_total{cell="2"}`,
		"campus_int_observations_total",
		"campus_slo_breaches_total",
		"campus_crosswire_inflight 0",
		`sim_shard_events_total{shard="0"}`,
		"sim_shard_windows_total",
		"sim_shard_imbalance",
	} {
		if !strings.Contains(out, fam) {
			t.Fatalf("campus exposition missing %q:\n%s", fam, out)
		}
	}
}

func TestRenderShardProfileTable(t *testing.T) {
	h := runObservedCampus(t, 2)
	p := h.ShardProfile()
	out := RenderShardProfile(p)
	if !strings.Contains(out, fmt.Sprintf("shard profile: %d shards", p.Shards)) {
		t.Fatalf("missing title: %q", out)
	}
	for _, col := range []string{"shard", "events", "ev/chunk", "occupancy", "barrier-wait µs", "wait share", "outbox msgs"} {
		if !strings.Contains(out, col) {
			t.Fatalf("missing column %q:\n%s", col, out)
		}
	}
	if rows := strings.Count(out, "\n"); rows < p.Shards+2 {
		t.Fatalf("table too short for %d shards:\n%s", p.Shards, out)
	}
	if strings.Contains(out, "NOTE: window log capped") {
		t.Fatalf("unexpected cap note:\n%s", out)
	}
	// The cap note appears only when windows were dropped from the log.
	p.WindowsDropped = 7
	if out := RenderShardProfile(p); !strings.Contains(out, "7 windows not logged") {
		t.Fatalf("missing cap note:\n%s", out)
	}
}

// TestRenderCampusTable pins the campus table structure (satellite
// coverage: RenderCampus previously had only an is-it-empty check).
func TestRenderCampusTable(t *testing.T) {
	_, res := runCampus(t, 2)
	out := RenderCampus(res)
	want := fmt.Sprintf("campus: %d cells, %d switches, %d hosts on %d shards (lookahead %d ns)",
		res.Cells, res.Switches, res.Hosts, res.Shards, res.LookaheadNS)
	if !strings.Contains(out, want) {
		t.Fatalf("missing title %q:\n%s", want, out)
	}
	for _, col := range []string{"cell", "tx frames", "rx frames", "int obs", "slo breaches"} {
		if !strings.Contains(out, col) {
			t.Fatalf("missing column %q:\n%s", col, out)
		}
	}
	for _, cs := range res.PerCell {
		row := fmt.Sprintf("%d", cs.TxFrames)
		if !strings.Contains(out, row) {
			t.Fatalf("missing cell %d tx count %s:\n%s", cs.Cell, row, out)
		}
	}
	if !strings.Contains(out, fmt.Sprintf("windows=%d skipped=%d cross-shard msgs=%d delivered=%d",
		res.Group.Windows, res.Group.Skipped, res.Group.Messages, res.Accounting.Delivered)) {
		t.Fatalf("missing group footer:\n%s", out)
	}
}
