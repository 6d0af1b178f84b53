package steelnetd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestFakeBackendPartitionOrder(t *testing.T) {
	f := NewFakeKafka()
	if f.Name() != "kafka" {
		t.Fatalf("Name() = %q", f.Name())
	}
	// Interleave two keys on one topic plus a second topic.
	mustPublish(t, f, "alerts", "run-b", `{"n":1}`)
	mustPublish(t, f, "alerts", "run-a", `{"n":2}`)
	mustPublish(t, f, "alerts", "run-b", `{"n":3}`)
	mustPublish(t, f, "slo", "run-a", `{"n":4}`)
	if f.Total() != 4 {
		t.Fatalf("Total() = %d, want 4", f.Total())
	}

	recs := f.Records()
	want := []Record{
		{Topic: "alerts", Key: "run-a", Seq: 1, Payload: `{"n":2}`},
		{Topic: "alerts", Key: "run-b", Seq: 1, Payload: `{"n":1}`},
		{Topic: "alerts", Key: "run-b", Seq: 2, Payload: `{"n":3}`},
		{Topic: "slo", Key: "run-a", Seq: 1, Payload: `{"n":4}`},
	}
	if len(recs) != len(want) {
		t.Fatalf("got %d records, want %d", len(recs), len(want))
	}
	for i := range want {
		if recs[i] != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, recs[i], want[i])
		}
	}

	var buf bytes.Buffer
	if err := f.WriteLog(&buf); err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec struct {
			Topic   string          `json:"topic"`
			Key     string          `json:"key"`
			Seq     uint64          `json:"seq"`
			Payload json.RawMessage `json:"payload"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line %d %q is not JSON: %v", i, line, err)
		}
		if rec.Topic != want[i].Topic || rec.Key != want[i].Key || rec.Seq != want[i].Seq {
			t.Errorf("log line %d = %+v, want %+v", i, rec, want[i])
		}
	}
}

func TestFakeBackendRejectsEmptyTopic(t *testing.T) {
	if err := NewFakeMQTT().Publish("", "k", []byte("{}")); err == nil {
		t.Fatal("empty topic accepted")
	}
}

// TestFakeBackendLogOrderIndependent pins the determinism contract:
// the dump depends only on what each key published, not on the
// interleaving across keys.
func TestFakeBackendLogOrderIndependent(t *testing.T) {
	pub := func(order []int) string {
		f := NewFakeKafka()
		seq := map[int]int{}
		for _, run := range order {
			seq[run]++
			key := fmt.Sprintf("run-%d", run)
			mustPublish(t, f, "t", key, fmt.Sprintf(`{"run":%d,"n":%d}`, run, seq[run]))
		}
		var buf bytes.Buffer
		if err := f.WriteLog(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a := pub([]int{0, 0, 1, 1, 2, 2})
	b := pub([]int{2, 1, 0, 2, 1, 0})
	if a != b {
		t.Fatalf("dump depends on cross-key interleaving:\n%s\nvs\n%s", a, b)
	}
}

func TestFakeBackendConcurrentPublish(t *testing.T) {
	f := NewFakeKafka()
	var wg sync.WaitGroup
	const keys, msgs = 8, 50
	for k := 0; k < keys; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			key := fmt.Sprintf("run-%d", k)
			for i := 0; i < msgs; i++ {
				mustPublish(t, f, "t", key, fmt.Sprintf(`{"i":%d}`, i))
			}
		}(k)
	}
	wg.Wait()
	if f.Total() != keys*msgs {
		t.Fatalf("Total() = %d, want %d", f.Total(), keys*msgs)
	}
	// Within each partition, order is publish order.
	for _, r := range f.Records() {
		want := fmt.Sprintf(`{"i":%d}`, r.Seq-1)
		if r.Payload != want {
			t.Fatalf("partition %s/%s seq %d holds %q, want %q", r.Topic, r.Key, r.Seq, r.Payload, want)
		}
	}
}

func TestLogBackend(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogBackend(&buf)
	if l.Name() != "log" {
		t.Fatalf("Name() = %q", l.Name())
	}
	mustPublish(t, l, "alerts", "run-1", `{"v":1}`)
	if got, want := buf.String(), "alerts run-1 {\"v\":1}\n"; got != want {
		t.Fatalf("log line %q, want %q", got, want)
	}
}

func TestDefaultBackendsAndResolve(t *testing.T) {
	b := DefaultBackends(&bytes.Buffer{})
	for _, name := range []string{"kafka", "mqtt", "log"} {
		if _, ok := b[name]; !ok {
			t.Errorf("DefaultBackends missing %q", name)
		}
	}
	ok := mustRuleSet(t, "loss:*>0.1->kafka:t;breach:*>0->log:slo")
	if err := b.Resolve(ok); err != nil {
		t.Errorf("Resolve rejected known backends: %v", err)
	}
	bad := mustRuleSet(t, "loss:*>0.1->nats:t")
	if err := b.Resolve(bad); err == nil {
		t.Error("Resolve accepted an unknown backend")
	}
}

func mustPublish(t *testing.T, p Publisher, topic, key, payload string) {
	t.Helper()
	if err := p.Publish(topic, key, []byte(payload)); err != nil {
		t.Fatalf("publish %s/%s: %v", topic, key, err)
	}
}
