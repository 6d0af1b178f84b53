package steelnetd

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"steelnet/internal/enc"
)

func TestHubFanoutAndFilter(t *testing.T) {
	h := NewHub()
	all, cancelAll := h.Subscribe("")
	only2, cancel2 := h.Subscribe("run-2")
	defer cancelAll()
	defer cancel2()
	if h.Subscribers() != 2 {
		t.Fatalf("Subscribers() = %d, want 2", h.Subscribers())
	}

	h.Publish(Frame{Run: "run-1", Data: []byte("a")})
	h.Publish(Frame{Run: "run-2", Data: []byte("b")})
	if got := string((<-all).Data) + string((<-all).Data); got != "ab" {
		t.Fatalf("unfiltered subscriber saw %q, want \"ab\"", got)
	}
	f := <-only2
	if f.Run != "run-2" || string(f.Data) != "b" {
		t.Fatalf("filtered subscriber saw %+v", f)
	}
	select {
	case f := <-only2:
		t.Fatalf("filtered subscriber leaked %+v", f)
	default:
	}
	if h.Published() != 2 {
		t.Fatalf("Published() = %d, want 2", h.Published())
	}
	cancelAll()
	if h.Subscribers() != 1 {
		t.Fatalf("Subscribers() after cancel = %d, want 1", h.Subscribers())
	}
	cancelAll() // idempotent
}

func TestHubDropOnFullAndEviction(t *testing.T) {
	h := NewHub()
	h.SetLimits(4, 3) // queue of 4, evict after 3 consecutive drops
	ch, cancel := h.Subscribe("")
	defer cancel()

	for i := 0; i < 4; i++ {
		h.Publish(Frame{Run: "r", Data: []byte{byte(i)}})
	}
	if h.Dropped() != 0 {
		t.Fatalf("Dropped() = %d before the queue filled", h.Dropped())
	}
	// Queue full: two more drop but survive, the third evicts.
	h.Publish(Frame{Run: "r", Data: []byte("x")})
	h.Publish(Frame{Run: "r", Data: []byte("x")})
	if h.Dropped() != 2 || h.Evicted() != 0 {
		t.Fatalf("dropped=%d evicted=%d, want 2, 0", h.Dropped(), h.Evicted())
	}
	h.Publish(Frame{Run: "r", Data: []byte("x")})
	if h.Dropped() != 3 || h.Evicted() != 1 || h.Subscribers() != 0 {
		t.Fatalf("dropped=%d evicted=%d subs=%d, want 3, 1, 0", h.Dropped(), h.Evicted(), h.Subscribers())
	}
	// Eviction closed the channel after the 4 buffered frames.
	for i := 0; i < 4; i++ {
		if _, ok := <-ch; !ok {
			t.Fatalf("frame %d missing from the evicted subscriber's buffer", i)
		}
	}
	if _, ok := <-ch; ok {
		t.Fatal("channel not closed after eviction")
	}
	cancel() // safe after eviction
}

func TestHubDeliveryResetsDropCount(t *testing.T) {
	h := NewHub()
	h.SetLimits(1, 2)
	ch, cancel := h.Subscribe("")
	defer cancel()
	for round := 0; round < 5; round++ {
		h.Publish(Frame{Run: "r", Data: []byte("a")}) // delivered
		h.Publish(Frame{Run: "r", Data: []byte("b")}) // dropped (queue of 1)
		<-ch                                          // drain; next publish delivers again
	}
	if h.Evicted() != 0 {
		t.Fatalf("evicted a subscriber whose drops never ran consecutively (dropped=%d)", h.Dropped())
	}
	if h.Dropped() != 5 {
		t.Fatalf("Dropped() = %d, want 5", h.Dropped())
	}
}

func TestHubMetricsRegistry(t *testing.T) {
	h := NewHub()
	ch, cancel := h.Subscribe("")
	defer cancel()
	h.Publish(Frame{Run: "r", Data: []byte("x")})
	<-ch
	var sb strings.Builder
	if err := h.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"steelnetd_hub_subscribers 1",
		"steelnetd_hub_frames_published_total 1",
		"steelnetd_hub_frames_dropped_total 0",
		"steelnetd_hub_evicted_total 0",
		"steelnetd_hub_fanout_ns_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if q := h.FanoutQuantile(0.99); q <= 0 {
		t.Errorf("FanoutQuantile(0.99) = %g after a publish", q)
	}
}

// TestHubConcurrentChurn races subscribe/unsubscribe against publishes;
// run under -race it pins the hub's locking.
func TestHubConcurrentChurn(t *testing.T) {
	h := NewHub()
	h.SetLimits(2, 2)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ch, cancel := h.Subscribe("")
				select {
				case <-ch:
				default:
				}
				cancel()
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		h.Publish(Frame{Run: "r", Data: []byte("x")})
	}
	close(stop)
	wg.Wait()
	if h.Published() != 2000 {
		t.Fatalf("Published() = %d, want 2000", h.Published())
	}
}

func TestSSEFrame(t *testing.T) {
	got := string(sseFrame("tags", []byte(`{"a":1}`)))
	if want := "event: tags\ndata: {\"a\":1}\n\n"; got != want {
		t.Fatalf("sseFrame = %q, want %q", got, want)
	}
}

func TestAppendTagsPayload(t *testing.T) {
	b := appendTagsPayload(nil, "run-1", 3, 150000000, []TagChange{
		{Name: `steelnet_host_rx_total{node="io"}`, Value: 250},
		{Name: "loss/s1", Value: 0.125},
	})
	var v struct {
		Run   string `json:"run"`
		Seq   uint64 `json:"seq"`
		SimNS int64  `json:"sim_ns"`
		Tags  []struct {
			Name  string  `json:"name"`
			Value float64 `json:"value"`
		} `json:"tags"`
	}
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatalf("payload %s is not JSON: %v", b, err)
	}
	if v.Run != "run-1" || v.Seq != 3 || v.SimNS != 150000000 || len(v.Tags) != 2 {
		t.Fatalf("payload decoded to %+v", v)
	}
	if v.Tags[0].Name != `steelnet_host_rx_total{node="io"}` || v.Tags[0].Value != 250 {
		t.Fatalf("tag 0 = %+v", v.Tags[0])
	}
	if v.Tags[1].Value != 0.125 {
		t.Fatalf("tag 1 = %+v", v.Tags[1])
	}
}

func TestAppendJSONFloatNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		b := appendTagsPayload(nil, "r", 1, 0, []TagChange{{Name: "x", Value: v}})
		if !json.Valid(b) {
			t.Errorf("payload with %v is not valid JSON: %s", v, b)
		}
		if !strings.Contains(string(b), "null") {
			t.Errorf("non-finite %v not clamped to null: %s", v, b)
		}
	}
	// A plain float stays a number.
	if got := string(enc.AppendFloat(nil, 0.25)); got != "0.25" {
		t.Errorf("enc.AppendFloat(0.25) = %q", got)
	}
}

func TestAppendFiringPayload(t *testing.T) {
	b := appendFiringPayload(nil, "run-7", Firing{
		Rule: "loss:*>0.01->kafka:alerts", Seq: 4, SimNS: 200, Value: 0.5,
	})
	var f struct {
		Run   string  `json:"run"`
		Rule  string  `json:"rule"`
		Seq   uint64  `json:"seq"`
		SimNS int64   `json:"sim_ns"`
		Value float64 `json:"value"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatalf("firing payload %s: %v", b, err)
	}
	if f.Run != "run-7" || f.Rule != "loss:*>0.01->kafka:alerts" || f.Seq != 4 || f.SimNS != 200 || f.Value != 0.5 {
		t.Fatalf("firing decoded to %+v", f)
	}
}

func TestHubManySubscribersAllDelivered(t *testing.T) {
	h := NewHub()
	const subs, frames = 50, 20
	h.SetLimits(frames, 0)
	chans := make([]<-chan Frame, subs)
	for i := range chans {
		ch, cancel := h.Subscribe("")
		defer cancel()
		chans[i] = ch
	}
	for i := 0; i < frames; i++ {
		h.Publish(Frame{Run: "r", Data: []byte(fmt.Sprintf("%d", i))})
	}
	if h.Dropped() != 0 || h.Evicted() != 0 {
		t.Fatalf("Dropped() = %d, Evicted() = %d with adequately sized queues", h.Dropped(), h.Evicted())
	}
	for i, ch := range chans {
		for j := 0; j < frames; j++ {
			f := <-ch
			if string(f.Data) != fmt.Sprintf("%d", j) {
				t.Fatalf("subscriber %d frame %d = %q", i, j, f.Data)
			}
		}
	}
}
