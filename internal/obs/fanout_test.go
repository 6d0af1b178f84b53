package obs

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
)

// The fan-out contract, asserted once here; Broker and Hub are thin
// users and their own suites only re-check it through their surfaces.

func TestFanoutKeyFilter(t *testing.T) {
	f := NewFanout[string]()
	all, cancelAll := f.Subscribe("")
	only, cancelOnly := f.Subscribe("b")
	defer cancelOnly()
	f.Offer("a", "1")
	f.Offer("b", "2")
	if got := <-all + <-all; got != "12" {
		t.Fatalf("unfiltered subscriber saw %q", got)
	}
	if got := <-only; got != "2" || len(only) != 0 {
		t.Fatalf("filtered subscriber saw %q (+%d pending)", got, len(only))
	}
	cancelAll()
	cancelAll() // idempotent
	if f.Subscribers() != 1 {
		t.Fatalf("Subscribers = %d after cancel", f.Subscribers())
	}
}

func TestFanoutDropEvictCancel(t *testing.T) {
	f := NewFanout[int]()
	f.SetLimits(4, 3)
	f.SetLimits(0, 0) // keeps both
	ch, cancel := f.Subscribe("")
	for i := 0; i < 4; i++ {
		f.Offer("", i)
	}
	if f.Dropped() != 0 || f.HighWater() != 4 || f.MaxLag() != 4 {
		t.Fatalf("dropped=%d highWater=%d maxLag=%d after filling the queue", f.Dropped(), f.HighWater(), f.MaxLag())
	}
	// Two drops, then a delivery: the streak resets, nobody is evicted.
	f.Offer("", -1)
	f.Offer("", -1)
	<-ch
	f.Offer("", 4)
	if f.Dropped() != 2 || f.Evicted() != 0 {
		t.Fatalf("dropped=%d evicted=%d after a broken streak", f.Dropped(), f.Evicted())
	}
	// Three consecutive drops evict: unregistered, channel closed after
	// the frames already queued.
	for i := 0; i < 3; i++ {
		f.Offer("", -1)
	}
	if f.Dropped() != 5 || f.Evicted() != 1 || f.Subscribers() != 0 || f.MaxLag() != 0 {
		t.Fatalf("dropped=%d evicted=%d subs=%d", f.Dropped(), f.Evicted(), f.Subscribers())
	}
	want := 1
	for v := range ch {
		if v != want {
			t.Fatalf("drained %d, want %d", v, want)
		}
		want++
	}
	if want != 5 {
		t.Fatalf("drained up to %d, want the 4 queued frames", want-1)
	}
	cancel() // safe after eviction
	f.Offer("", 9)
	if f.Dropped() != 5 {
		t.Fatal("offer reached an evicted subscriber")
	}
}

// Subscribe/cancel racing Offer; under -race this pins the locking on
// the subscriber table, including eviction closing a channel a
// subscriber is about to cancel.
func TestFanoutChurn(t *testing.T) {
	f := NewFanout[int]()
	f.SetLimits(2, 2)
	stop := make(chan struct{})
	var wg sync.WaitGroup
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
				ch, cancel := f.Subscribe("")
				select {
				case <-ch:
				default:
				}
				cancel()
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		f.Offer("", i)
	}
	close(stop)
	wg.Wait()
	if f.Subscribers() != 0 {
		t.Fatalf("Subscribers = %d after every churner cancelled", f.Subscribers())
	}
}

func TestFanoutOfferZeroAllocs(t *testing.T) {
	f := NewFanout[[]byte]()
	f.SetLimits(1, 1<<30)
	for i := 0; i < 8; i++ {
		_, cancel := f.Subscribe("")
		defer cancel()
	}
	frame := []byte("x")
	if n := testing.AllocsPerRun(100, func() { f.Offer("", frame) }); n != 0 {
		t.Fatalf("Offer allocates %v/op", n)
	}
}

// noFlush hides the recorder's Flush method.
type noFlush struct{ http.ResponseWriter }

func TestServeSSE(t *testing.T) {
	f := NewFanout[string]()
	f.SetLimits(4, 2)
	serve := func(w http.ResponseWriter, r *http.Request) {
		f.ServeSSE(w, r, "k", func() string { return fmt.Sprintf("hello %d\n\n", f.Subscribers()) },
			func(s string) []byte { return []byte(s) })
	}

	// A client that leaves: hello describes the live subscription, queued
	// frames are written, and the emptied queue is kept for the next one.
	ctx, leave := context.WithCancel(context.Background())
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		serve(rec, httptest.NewRequest("GET", "/events", nil).WithContext(ctx))
	}()
	for f.Subscribers() != 1 {
		runtime.Gosched()
	}
	f.Offer("other", "x\n\n")
	f.Offer("k", "a\n\n")
	for f.MaxLag() != 0 {
		runtime.Gosched()
	}
	leave()
	<-done
	if got := rec.Body.String(); got != "hello 1\n\na\n\n" {
		t.Fatalf("stream = %q", got)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/event-stream" || !rec.Flushed {
		t.Fatalf("content-type %q flushed=%v", ct, rec.Flushed)
	}
	if f.Subscribers() != 0 || cap(f.spare) != 4 || len(f.spare) != 0 {
		t.Fatalf("after leaving: subs=%d spare cap=%d len=%d", f.Subscribers(), cap(f.spare), len(f.spare))
	}

	// The next client takes the spare queue; Subscribe never does. An
	// evicted client's queue is closed and must not come back.
	spare := f.spare
	ch, cancel := f.Subscribe("k")
	defer cancel()
	if f.spare != spare {
		t.Fatal("Subscribe took the spare queue")
	}
	stalled := &stallWriter{hdr: http.Header{}, release: make(chan struct{})}
	done = make(chan struct{})
	go func() {
		defer close(done)
		serve(stalled, httptest.NewRequest("GET", "/events", nil))
	}()
	for f.Subscribers() != 2 {
		runtime.Gosched()
	}
	if f.spare != nil {
		t.Fatal("ServeSSE did not take the spare queue")
	}
	for i := 0; i < 6; i++ { // 4 fill the queue, 2 drops evict
		f.Offer("k", "b\n\n")
		<-ch
	}
	close(stalled.release)
	<-done
	if f.Evicted() != 1 || f.spare != nil {
		t.Fatalf("evicted=%d spare=%v after an eviction", f.Evicted(), f.spare)
	}

	rec = httptest.NewRecorder()
	serve(noFlush{rec}, httptest.NewRequest("GET", "/events", nil))
	if rec.Code != http.StatusInternalServerError || f.Subscribers() != 1 {
		t.Fatalf("unflushable writer: status %d, subs %d", rec.Code, f.Subscribers())
	}
}

// stallWriter blocks every write until released — a client that has
// stopped reading.
type stallWriter struct {
	hdr     http.Header
	release chan struct{}
}

func (s *stallWriter) Header() http.Header { return s.hdr }
func (s *stallWriter) WriteHeader(int)     {}
func (s *stallWriter) Flush()              {}
func (s *stallWriter) Write(p []byte) (int, error) {
	<-s.release
	return len(p), nil
}
