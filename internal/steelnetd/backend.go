package steelnetd

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// Publisher is the northbound seam: rule firings and republish batches
// leave the gateway through one of these. Implementations must be safe
// for concurrent use — every run goroutine publishes into the same
// backend.
type Publisher interface {
	// Name identifies the backend in rule specs ("kafka", "mqtt", "log").
	Name() string
	// Publish delivers one message. key partitions the topic (the
	// gateway uses the run ID), mirroring Kafka partition keys and
	// MQTT topic levels: ordering is guaranteed within a (topic, key)
	// partition and unspecified across partitions.
	Publish(topic, key string, payload []byte) error
}

// Record is one published message as a fake backend logged it.
type Record struct {
	Topic string `json:"topic"`
	Key   string `json:"key"`
	// Seq is the record's position within its (topic, key) partition,
	// from 1.
	Seq     uint64 `json:"seq"`
	Payload string `json:"payload"`
}

// FakeBackend is an in-process stand-in for a Kafka or MQTT northbound:
// it appends every publish to a per-(topic, key) partition log. Because
// concurrent runs publish under distinct keys, the partition logs — and
// therefore WriteLog's sorted dump — are a pure function of the hosted
// run specs, regardless of goroutine interleaving. That determinism is
// what the golden tests pin.
type FakeBackend struct {
	name string

	mu    sync.Mutex
	parts map[partKey][]string
	total uint64
}

type partKey struct{ topic, key string }

// NewFakeKafka returns a fake backend named "kafka".
func NewFakeKafka() *FakeBackend { return &FakeBackend{name: "kafka", parts: map[partKey][]string{}} }

// NewFakeMQTT returns a fake backend named "mqtt".
func NewFakeMQTT() *FakeBackend { return &FakeBackend{name: "mqtt", parts: map[partKey][]string{}} }

// Name implements Publisher.
func (f *FakeBackend) Name() string { return f.name }

// Publish implements Publisher by appending to the partition log.
func (f *FakeBackend) Publish(topic, key string, payload []byte) error {
	if topic == "" {
		return fmt.Errorf("steelnetd: %s: publish with empty topic", f.name)
	}
	f.mu.Lock()
	pk := partKey{topic, key}
	f.parts[pk] = append(f.parts[pk], string(payload))
	f.total++
	f.mu.Unlock()
	return nil
}

// Total returns the number of messages published so far.
func (f *FakeBackend) Total() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.total
}

// Records returns every logged message sorted by (topic, key, seq) —
// the canonical deterministic order.
func (f *FakeBackend) Records() []Record {
	f.mu.Lock()
	keys := make([]partKey, 0, len(f.parts))
	for pk := range f.parts {
		keys = append(keys, pk)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].topic != keys[j].topic {
			return keys[i].topic < keys[j].topic
		}
		return keys[i].key < keys[j].key
	})
	var recs []Record
	for _, pk := range keys {
		for i, payload := range f.parts[pk] {
			recs = append(recs, Record{Topic: pk.topic, Key: pk.key, Seq: uint64(i + 1), Payload: payload})
		}
	}
	f.mu.Unlock()
	return recs
}

// WriteLog dumps the backend's full log as JSONL in (topic, key, seq)
// order. Two gateways that hosted the same run specs dump byte-identical
// logs, at any concurrency.
func (f *FakeBackend) WriteLog(w io.Writer) error {
	for _, r := range f.Records() {
		if _, err := fmt.Fprintf(w, `{"topic":%q,"key":%q,"seq":%d,"payload":%s}`+"\n",
			r.Topic, r.Key, r.Seq, r.Payload); err != nil {
			return err
		}
	}
	return nil
}

// LogBackend writes each publish immediately as one line — smoke-test
// and debugging output. Line order follows publish order, so it is NOT
// deterministic across concurrent runs; goldens use FakeBackend.
type LogBackend struct {
	name string
	mu   sync.Mutex
	w    io.Writer
}

// NewLogBackend returns a backend named "log" writing to w.
func NewLogBackend(w io.Writer) *LogBackend { return &LogBackend{name: "log", w: w} }

// Name implements Publisher.
func (l *LogBackend) Name() string { return l.name }

// Publish implements Publisher.
func (l *LogBackend) Publish(topic, key string, payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, err := fmt.Fprintf(l.w, "%s %s %s\n", topic, key, payload)
	return err
}

// Backends is a named set of publishers, the gateway's action-routing
// table.
type Backends map[string]Publisher

// DefaultBackends returns the standard trio: fake kafka, fake mqtt, and
// a log backend writing to w.
func DefaultBackends(w io.Writer) Backends {
	k, m, l := NewFakeKafka(), NewFakeMQTT(), NewLogBackend(w)
	return Backends{k.Name(): k, m.Name(): m, l.Name(): l}
}

// Resolve checks that every backend a rule set routes to exists.
func (b Backends) Resolve(rs RuleSet) error {
	for i, r := range rs.Rules {
		if _, ok := b[r.Backend]; !ok {
			return fmt.Errorf("steelnetd: rule %d (%s): unknown backend %q", i, r, r.Backend)
		}
	}
	return nil
}
