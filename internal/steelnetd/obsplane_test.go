package steelnetd

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// dumpObsPlane runs the specs on a fresh gateway at the given
// concurrency and returns the lifecycle journal dump plus a canonical
// rendering of every run's time-series history.
func dumpObsPlane(t *testing.T, maxConcurrent int, specs []RunSpec) (journal, history string) {
	t.Helper()
	g := NewGateway(GatewayConfig{MaxConcurrent: maxConcurrent})
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
	var jb bytes.Buffer
	if err := g.Journal().WriteLog(&jb); err != nil {
		t.Fatal(err)
	}
	return jb.String(), dumpHistory(t, g, ids)
}

// dumpHistory renders every run's full-resolution history in a fixed
// text form: one line per (run, metric) with every retained point.
func dumpHistory(t *testing.T, g *Gateway, ids []string) string {
	t.Helper()
	var b strings.Builder
	for _, id := range ids {
		rec, ok := g.History(id)
		if !ok {
			t.Fatalf("no history for %q", id)
		}
		for _, name := range rec.Names() {
			pts, fold, ok := rec.Query(name, 0, 0)
			if !ok {
				t.Fatalf("%s: metric %q vanished", id, name)
			}
			fmt.Fprintf(&b, "%s %s fold=%d", id, name, fold)
			for _, p := range pts {
				fmt.Fprintf(&b, " %d:%g", p.TNS, p.V)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestJournalAndHistoryGoldenAcrossConcurrency extends the PR 9 golden
// suite to the observability plane: the lifecycle journal and every
// run's /history are pure functions of the hosted run specs —
// byte-identical at any -max-concurrent setting and across reruns.
func TestJournalAndHistoryGoldenAcrossConcurrency(t *testing.T) {
	specs := goldenSpecs()
	baseJournal, baseHistory := dumpObsPlane(t, 1, specs)
	if baseJournal == "" || baseHistory == "" {
		t.Fatalf("golden fleet recorded nothing: journal=%d bytes, history=%d bytes",
			len(baseJournal), len(baseHistory))
	}
	if !strings.Contains(baseJournal, `"event":"firing"`) {
		t.Fatalf("journal recorded no firings:\n%s", baseJournal)
	}
	for conc := 0; conc <= 4; conc += 2 {
		j, h := dumpObsPlane(t, conc, specs)
		if j != baseJournal {
			t.Errorf("-max-concurrent=%d changed the journal:\n--- conc=1\n%s\n--- conc=%d\n%s", conc, baseJournal, conc, j)
		}
		if h != baseHistory {
			t.Errorf("-max-concurrent=%d changed the history", conc)
		}
	}
	// Rerun at the same setting: byte-identical again.
	j, h := dumpObsPlane(t, 1, specs)
	if j != baseJournal || h != baseHistory {
		t.Error("rerun changed the journal or history")
	}
}

// TestJournalLifecycle pins the journal's record sequence for a run
// that pauses at StopAfter, including per-run sequencing.
func TestJournalLifecycle(t *testing.T) {
	spec := RunSpec{ID: "jl", Run: testRun(42), Rules: testRules, StopAfter: 2}
	g := NewGateway(GatewayConfig{})
	id, err := g.Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Wait(id); err != nil {
		t.Fatal(err)
	}
	var jb bytes.Buffer
	if err := g.Journal().WriteLog(&jb); err != nil {
		t.Fatal(err)
	}
	g.Close()
	lines := strings.Split(strings.TrimSpace(jb.String()), "\n")
	if len(lines) < 3 {
		t.Fatalf("journal has %d records, want >= 3:\n%s", len(lines), jb.String())
	}
	wantPrefix := []string{`"event":"created"`, `"event":"started"`}
	for i, want := range wantPrefix {
		if !strings.Contains(lines[i], want) {
			t.Errorf("record %d = %s, want %s", i, lines[i], want)
		}
		if !strings.Contains(lines[i], fmt.Sprintf(`"seq":%d`, i+1)) {
			t.Errorf("record %d lacks seq %d: %s", i, i+1, lines[i])
		}
	}
	if last := lines[len(lines)-1]; !strings.Contains(last, `"event":"paused"`) {
		t.Errorf("journal tail = %s, want paused", last)
	}
	if g.Journal().Seq("jl") != uint64(len(lines)) {
		t.Errorf("Seq = %d, lines = %d", g.Journal().Seq("jl"), len(lines))
	}
}

// TestJournalStopAndFail pins the stopped and transition-counter paths.
func TestJournalStopAndFail(t *testing.T) {
	g := NewGateway(GatewayConfig{})
	long := testRun(1)
	long.Horizon = 30_000_000_000 // 30s: will not finish on its own
	id, err := g.Start(RunSpec{ID: "victim", Run: long})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Stop(id); err != nil {
		t.Fatal(err)
	}
	g.Wait(id) //nolint:errcheck
	var jb bytes.Buffer
	if err := g.Journal().WriteLog(&jb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jb.String(), `"event":"stopped"`) {
		t.Errorf("journal lacks stopped record:\n%s", jb.String())
	}
	g.Close()
}

// TestGatewayTraceStitching pins the cross-layer trace: a traced run on
// a traced gateway exports one Chrome file holding the sim lanes
// (prefixed by run id), the gateway's run windows and rule firings.
func TestGatewayTraceStitching(t *testing.T) {
	g := NewGateway(GatewayConfig{Trace: true})
	spec := RunSpec{ID: "tr", Run: testRun(42), Rules: testRules}
	spec.Run.Trace = true
	id, err := g.Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Wait(id); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	g.Close()
	out := buf.String()
	for _, want := range []string{
		`"steelnetd"`,  // gateway process metadata
		`"run/tr"`,     // run-window lane
		`"tr/`,         // sim lanes prefixed by run id
		`"cat":"rule"`, // rule-firing instants
		`"name":"slice"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace lacks %s", want)
		}
	}
}
