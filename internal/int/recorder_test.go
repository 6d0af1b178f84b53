package intnet

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"steelnet/internal/telemetry"
)

func ev(node string, t int64) telemetry.Event {
	return telemetry.Event{T: t, Kind: telemetry.KindForward, Node: node, Port: 1}
}

func TestRecorderRingBounds(t *testing.T) {
	r := NewRecorder()
	if !r.Empty() {
		t.Fatal("fresh recorder not Empty")
	}
	for i := int64(1); i <= RecorderDepth+4; i++ {
		r.Observe(ev("sw", i))
	}
	if r.Empty() {
		t.Fatal("recorder Empty after events")
	}

	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != RecorderDepth {
		t.Fatalf("dump has %d lines, want ring cap %d", len(lines), RecorderDepth)
	}
	// Oldest-first: the first four events were overwritten.
	for i, line := range lines {
		var rec struct {
			Type string `json:"type"`
			T    int64  `json:"t"`
			Node string `json:"node"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if rec.Type != "event" || rec.Node != "sw" || rec.T != int64(5+i) {
			t.Fatalf("line %d = %+v, want event t=%d", i, rec, 5+i)
		}
	}
}

func TestRecorderAutoTriggers(t *testing.T) {
	r := NewRecorder()

	r.Observe(ev("sw", 1))
	r.Observe(telemetry.Event{T: 5, Kind: telemetry.KindFaultInject, Node: "link", Detail: "linkdown:link@5ms"})
	r.Observe(telemetry.Event{T: 9, Kind: telemetry.KindSLOBreach, Node: "dst", Detail: "latency:dst<1µs"})

	tgs := r.triggers
	if len(tgs) != 2 {
		t.Fatalf("got %d triggers, want 2", len(tgs))
	}
	if tgs[0].Reason != "fault-inject" || tgs[0].Node != "link" || tgs[0].AtNS != 5 {
		t.Fatalf("fault trigger = %+v", tgs[0])
	}
	if tgs[1].Reason != "slo-breach" || tgs[1].Detail != "latency:dst<1µs" {
		t.Fatalf("slo trigger = %+v", tgs[1])
	}
}

func TestRecorderAttachObservesTracer(t *testing.T) {
	tr := telemetry.NewTracer(nil)
	tr.SetRetain(false) // recorder must not depend on the tracer's log
	r := NewRecorder()
	r.Attach(tr)

	tr.FaultInject("sw", "partition:sw@1ms", 1000)
	tr.SLOBreach("dst", "latency:dst<1µs", 4200)
	if r.Empty() {
		t.Fatal("attached recorder saw nothing")
	}
	if got := len(r.triggers); got != 2 {
		t.Fatalf("got %d auto-triggers via Attach, want 2", got)
	}
	r2 := NewRecorder()
	r2.Attach(nil) // must not panic
}

func TestRecorderDumpDeterministicOrder(t *testing.T) {
	mk := func() *Recorder {
		r := NewRecorder()
		// First-seen order z, a — the dump must still sort by node name,
		// with triggers first.
		r.Observe(ev("z", 1))
		r.Observe(ev("a", 2))
		r.Observe(ev("z", 3))
		r.triggers = append(r.triggers, Trigger{Reason: "test", Detail: "detail", AtNS: 4})
		return r
	}
	var b1, b2 bytes.Buffer
	if err := mk().WriteJSONL(&b1); err != nil {
		t.Fatal(err)
	}
	if err := mk().WriteJSONL(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("identical recorders dumped different bytes")
	}
	lines := strings.Split(strings.TrimSpace(b1.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("dump has %d lines, want 4", len(lines))
	}
	wantOrder := []string{`"trigger"`, `"a"`, `"z"`, `"z"`}
	for i, frag := range wantOrder {
		if !strings.Contains(lines[i], frag) {
			t.Fatalf("line %d = %s, want it to contain %s", i, lines[i], frag)
		}
	}
}
