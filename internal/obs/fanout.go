package obs

import (
	"io"
	"net/http"
	"sync"
	"sync/atomic"
)

// Default fan-out limits. subBuf bounds each subscriber's pending queue:
// a subscriber that falls further behind loses messages (counted in
// Dropped) rather than stalling the publisher. defaultEvictAfter is how
// many consecutive drops a subscriber survives: a full queue plus this
// many missed messages means the client is not reading at all (a stalled
// curl, a dead TCP peer the kernel has not noticed), and holding its
// slot would cost every future offer a failed send.
const (
	subBuf            = 64
	defaultEvictAfter = 256
)

// Fanout is a bounded, non-blocking broadcast to a changing set of
// subscribers — the one fan-out discipline of the publish plane, used by
// the per-run Broker (T = a formatted SSE frame) and the fleet-wide
// steelnetd Hub (T = a frame tagged with its run). Offer never blocks: a
// full subscriber queue drops the message, and a subscriber that keeps
// dropping is evicted (unregistered, its channel closed). Offer does not
// allocate; T is sent by value, so payload bytes inside it are shared.
type Fanout[T any] struct {
	mu         sync.Mutex
	subs       map[*fanSub[T]]struct{}
	buf        int
	evictAfter int

	dropped atomic.Uint64
	evicted atomic.Uint64
	// highWater is the deepest any subscriber queue has ever been — the
	// early-warning number: it climbs toward buf long before drops start.
	highWater atomic.Int64

	// spare is the emptied queue of the last ServeSSE client to leave,
	// kept for the next one. A gateway sizes its queues for a whole
	// run's frames (megabytes each under a lossless load), and a probe that
	// connects, reads hello and leaves would otherwise turn one such
	// queue into garbage per request.
	spare chan T
}

type fanSub[T any] struct {
	ch    chan T
	key   string // "" = every message
	drops int    // consecutive drops; reset on every delivery
}

// NewFanout returns an empty fan-out with the default limits.
func NewFanout[T any]() *Fanout[T] {
	return &Fanout[T]{subs: map[*fanSub[T]]struct{}{}, buf: subBuf, evictAfter: defaultEvictAfter}
}

// SetLimits overrides the subscriber queue depth and the consecutive-
// drop eviction threshold (n <= 0 keeps the current value). Call before
// subscribers attach.
func (f *Fanout[T]) SetLimits(buf, evictAfter int) {
	f.mu.Lock()
	if buf > 0 {
		f.buf = buf
	}
	if evictAfter > 0 {
		f.evictAfter = evictAfter
	}
	f.mu.Unlock()
}

// Subscribe registers a subscriber. key filters to messages offered
// under that key ("" = every message). The fan-out closes ch when it
// evicts the subscriber; receivers must treat a closed channel as the
// end of the stream. cancel is idempotent and safe after an eviction.
func (f *Fanout[T]) Subscribe(key string) (ch <-chan T, cancel func()) {
	sub := f.attach(key, false)
	return sub.ch, func() {
		f.mu.Lock()
		delete(f.subs, sub)
		f.mu.Unlock()
	}
}

// attach registers a subscriber — on the spare queue if reuse allows it
// and the depth still matches, on a fresh one otherwise.
func (f *Fanout[T]) attach(key string, reuse bool) *fanSub[T] {
	f.mu.Lock()
	defer f.mu.Unlock()
	sub := &fanSub[T]{key: key}
	if reuse && cap(f.spare) == f.buf {
		sub.ch, f.spare = f.spare, nil
	} else {
		sub.ch = make(chan T, f.buf)
	}
	f.subs[sub] = struct{}{}
	return sub
}

// recycle unregisters sub and keeps its emptied queue as the spare. Only
// for a queue no one else can still receive from. After an eviction the
// queue is closed and there is nothing to keep.
func (f *Fanout[T]) recycle(sub *fanSub[T]) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.subs[sub]; !ok {
		return
	}
	delete(f.subs, sub)
	for len(sub.ch) > 0 {
		<-sub.ch
	}
	f.spare = sub.ch
}

// Offer hands v to every subscriber whose key is empty or equals key.
func (f *Fanout[T]) Offer(key string, v T) {
	f.mu.Lock()
	for sub := range f.subs {
		if sub.key != "" && sub.key != key {
			continue
		}
		select {
		case sub.ch <- v:
			sub.drops = 0
			if d := int64(len(sub.ch)); d > f.highWater.Load() {
				f.highWater.Store(d) // plain max is fine: writers hold f.mu
			}
		default:
			f.dropped.Add(1)
			sub.drops++
			if sub.drops >= f.evictAfter {
				delete(f.subs, sub)
				close(sub.ch)
				f.evicted.Add(1)
			}
		}
	}
	f.mu.Unlock()
}

// Subscribers returns the current fan-out width.
func (f *Fanout[T]) Subscribers() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.subs)
}

// Dropped returns the number of messages discarded on full queues.
func (f *Fanout[T]) Dropped() uint64 { return f.dropped.Load() }

// Evicted returns the number of subscribers disconnected for not
// draining their queues.
func (f *Fanout[T]) Evicted() uint64 { return f.evicted.Load() }

// HighWater returns the deepest any subscriber queue has been.
func (f *Fanout[T]) HighWater() int { return int(f.highWater.Load()) }

// MaxLag returns the deepest current subscriber queue — how far the
// slowest attached consumer is behind, in pending messages.
func (f *Fanout[T]) MaxLag() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	lag := 0
	for sub := range f.subs {
		lag = max(lag, len(sub.ch))
	}
	return lag
}

// ServeSSE is the publish plane's one SSE writer: it subscribes under
// key, sends hello (evaluated after subscribing, so it can describe the
// subscription), then every message (data extracts its formatted
// frame), flushing after each, until the client disconnects, a write
// fails, or the fan-out evicts the subscription.
func (f *Fanout[T]) ServeSSE(w http.ResponseWriter, r *http.Request, key string, hello func() string, data func(T) []byte) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	sub := f.attach(key, true)
	defer f.recycle(sub) // the queue never leaves this function
	if _, err := io.WriteString(w, hello()); err != nil {
		return
	}
	fl.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case v, ok := <-sub.ch:
			if !ok {
				return // evicted
			}
			if _, err := w.Write(data(v)); err != nil {
				return
			}
			fl.Flush()
		}
	}
}
