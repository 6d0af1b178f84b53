package profinet

import (
	"time"

	"steelnet/internal/sim"
)

// Watchdog tracks data freshness for one side of a CR. Every received
// valid frame feeds it; when no frame arrives for factor consecutive
// cycles the watchdog expires and fires the callback once. Feeding a
// fresh frame after expiry re-arms it (return-of-peer).
type Watchdog struct {
	engine  *sim.Engine
	cycle   time.Duration
	factor  int
	onTrip  func()
	onClear func()
	timer   sim.Event
	expired bool
	// Trips counts expiry events.
	Trips uint64
}

// NewWatchdog builds a watchdog with the CR's cycle and factor. onTrip
// fires on expiry; onClear (optional) fires when data returns after an
// expiry.
func NewWatchdog(engine *sim.Engine, cycle time.Duration, factor int, onTrip, onClear func()) *Watchdog {
	if cycle <= 0 || factor < 1 {
		panic("profinet: watchdog needs positive cycle and factor")
	}
	return &Watchdog{engine: engine, cycle: cycle, factor: factor, onTrip: onTrip, onClear: onClear}
}

// Feed registers a fresh valid frame, re-arming the timeout.
func (w *Watchdog) Feed() {
	w.timer.Cancel()
	if w.expired {
		w.expired = false
		if w.onClear != nil {
			w.onClear()
		}
	}
	w.timer = w.engine.After(time.Duration(w.factor)*w.cycle, (*tripEv)(w))
}

// Stop disarms the watchdog without firing.
func (w *Watchdog) Stop() {
	w.timer.Cancel()
	w.timer = sim.Event{}
}

// Expired reports whether the watchdog is currently tripped.
func (w *Watchdog) Expired() bool { return w.expired }

// tripEv is a watchdog as the handler of its expiry.
type tripEv Watchdog

func (e *tripEv) Fire() {
	w := (*Watchdog)(e)
	w.expired = true
	w.Trips++
	if w.onTrip != nil {
		w.onTrip()
	}
}
