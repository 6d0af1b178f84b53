package steelnetd

import (
	"fmt"
	"testing"
	"time"

	"steelnet/internal/tshist"
)

// BenchmarkHubPublish pins the per-publish cost of the hub hot path at a
// realistic subscriber count; its allocs/op figure is the alloc budget
// benchdiff guards.
func BenchmarkHubPublish(b *testing.B) {
	for _, subs := range []int{1, 64, 1024} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			h := NewHub()
			h.SetLimits(b.N+subs+64, 0)
			for i := 0; i < subs; i++ {
				ch, cancel := h.Subscribe("")
				defer cancel()
				go func() {
					for range ch {
					}
				}()
			}
			f := Frame{Run: "bench", Data: []byte(`event: tags` + "\n" + `data: {"run":"bench","seq":1}` + "\n\n")}
			// Warm the drainer goroutines so their stack growth happens
			// outside the timed (and alloc-counted) window.
			for i := 0; i < 64; i++ {
				h.Publish(f)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Publish(f)
			}
		})
	}
}

// BenchmarkJournalAppend pins the lifecycle journal's record cost: one
// strconv-append render into the per-run buffer. The growth allocations
// amortize to zero — benchdiff guards the allocs/op figure.
func BenchmarkJournalAppend(b *testing.B) {
	j := NewJournal()
	j.RecordDetail("bench", JournalFiring, 0, "warm") // allocate the run's log
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.RecordDetail("bench", JournalFiring, int64(i)*int64(50*time.Millisecond), `loss:*>0.1->kafka:alerts`)
	}
}

// BenchmarkJournaledPublish is ISSUE 10's observable-slice hot path: the
// history recorder takes every sampled tag, the journal takes a firing
// record, and the hub fans the prebuilt frame out to 1024 subscribers —
// all without allocating.
func BenchmarkJournaledPublish(b *testing.B) {
	const subs = 1024
	h := NewHub()
	h.SetLimits(b.N+subs+64, 0)
	for i := 0; i < subs; i++ {
		ch, cancel := h.Subscribe("")
		defer cancel()
		go func() {
			for range ch {
			}
		}()
	}
	j := NewJournal()
	rec := tshist.NewRecorder(0, 0, 0)
	tags := []TagChange{
		{Name: `steelnet_host_rx_total{node="io"}`, Value: 250},
		{Name: "int/instaplc-switch.out0/press/1/mean_ns", Value: 3000},
		{Name: "loss/instaplc-switch.out1", Value: 0.55},
		{Name: "slo/breaches", Value: 3},
	}
	f := Frame{Run: "bench", Data: []byte(`event: tags` + "\n" + `data: {"run":"bench","seq":1}` + "\n\n")}
	for _, tg := range tags { // warm the recorder's rings
		rec.Append(tg.Name, 0, tg.Value)
	}
	j.RecordDetail("bench", JournalFiring, 0, "warm")
	for i := 0; i < 64; i++ { // warm the drainer goroutines' stacks
		h.Publish(f)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tns := int64(i+1) * int64(50*time.Millisecond)
		for _, tg := range tags {
			rec.Append(tg.Name, tns, tg.Value)
		}
		j.RecordDetail("bench", JournalFiring, tns, `loss:*>0.1->kafka:alerts`)
		h.Publish(f)
	}
}

// BenchmarkAppendTagsPayload measures the frame-assembly path that runs
// once per slice per run, independent of subscriber count.
func BenchmarkAppendTagsPayload(b *testing.B) {
	changes := []TagChange{
		{Name: `steelnet_host_rx_total{node="io"}`, Value: 250},
		{Name: "int/instaplc-switch.out0/press/1/mean_ns", Value: 3000},
		{Name: "loss/instaplc-switch.out1", Value: 0.55},
		{Name: "slo/breaches", Value: 3},
	}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = appendTagsPayload(buf[:0], "run-1", uint64(i), int64(i)*int64(50*time.Millisecond), changes)
	}
}
