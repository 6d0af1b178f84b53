package steelnetd

import (
	"bytes"
	"fmt"
	"strconv"
	"testing"
)

// goldenSpecs is the fixed fleet the golden tests replay: four runs
// with distinct seeds under pinned IDs, all carrying the same rule set.
func goldenSpecs() []RunSpec {
	specs := make([]RunSpec, 4)
	for i := range specs {
		specs[i] = RunSpec{
			ID:    fmt.Sprintf("golden-%d", i),
			Run:   testRun(uint64(10 + i)),
			Rules: testRules,
		}
	}
	return specs
}

// dumpLogs runs the specs on a fresh gateway at the given concurrency
// and returns each fake backend's JSONL dump, plus under "hub" the
// number of frames the hub published with nobody subscribed.
func dumpLogs(t *testing.T, maxConcurrent int, specs []RunSpec) map[string]string {
	t.Helper()
	kafka, mqtt := NewFakeKafka(), NewFakeMQTT()
	g := NewGateway(GatewayConfig{
		Backends:      Backends{"kafka": kafka, "mqtt": mqtt},
		MaxConcurrent: maxConcurrent,
	})
	defer g.Close()
	ids := make([]string, len(specs))
	for i, spec := range specs {
		id, err := g.Start(spec)
		if err != nil {
			t.Fatalf("start %q: %v", spec.ID, err)
		}
		ids[i] = id
	}
	for _, id := range ids {
		if err := g.Wait(id); err != nil {
			t.Fatalf("wait %q: %v", id, err)
		}
	}
	out := map[string]string{"hub": strconv.FormatUint(g.Hub().Published(), 10)}
	for name, f := range map[string]*FakeBackend{"kafka": kafka, "mqtt": mqtt} {
		var buf bytes.Buffer
		if err := f.WriteLog(&buf); err != nil {
			t.Fatal(err)
		}
		out[name] = buf.String()
	}
	return out
}

// TestGoldenLogsAcrossConcurrency pins the gateway's core determinism
// claim: the northbound publish logs are a pure function of the hosted
// run specs, byte-identical whether runs step one at a time or all at
// once (the concurrency knob only reorders goroutine interleavings,
// which the per-run partition keys make invisible).
func TestGoldenLogsAcrossConcurrency(t *testing.T) {
	specs := goldenSpecs()
	base := dumpLogs(t, 1, specs)
	if base["kafka"] == "" || base["mqtt"] == "" || base["hub"] == "0" {
		t.Fatalf("golden fleet published nothing: kafka=%d bytes, mqtt=%d bytes, hub=%s frames",
			len(base["kafka"]), len(base["mqtt"]), base["hub"])
	}
	for conc := 2; conc <= 4; conc++ {
		got := dumpLogs(t, conc, specs)
		for name := range base {
			if got[name] != base[name] {
				t.Errorf("-max-concurrent=%d changed the %s log:\n--- concurrent=1\n%s\n--- concurrent=%d\n%s",
					conc, name, base[name], conc, got[name])
			}
		}
	}
}

// TestGoldenRerunIdentical reruns the same fleet twice at full
// concurrency and requires byte-identical logs — the acceptance
// criterion's "rule firings byte-identical across reruns".
func TestGoldenRerunIdentical(t *testing.T) {
	specs := goldenSpecs()
	a := dumpLogs(t, 0, specs)
	b := dumpLogs(t, 0, specs)
	for name := range a {
		if a[name] != b[name] {
			t.Errorf("rerun changed the %s log", name)
		}
	}
}
