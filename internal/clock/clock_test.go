package clock

import (
	"testing"
	"testing/quick"
	"time"

	"steelnet/internal/sim"
)

func TestPerfectClock(t *testing.T) {
	c := Perfect{Offset: 100 * time.Nanosecond}
	if got := c.Read(1000); got != 1100 {
		t.Fatalf("Read = %d", got)
	}
}

func TestDriftingClockGainsPPM(t *testing.T) {
	c := Drifting{DriftPPM: 50}
	// After 1 s of true time, a +50 ppm clock has gained 50 µs.
	got := c.Read(sim.Time(time.Second))
	want := int64(time.Second) + int64(50*time.Microsecond)
	if got != want {
		t.Fatalf("Read = %d, want %d", got, want)
	}
}

func TestDriftingClockNegativeDrift(t *testing.T) {
	c := Drifting{DriftPPM: -20}
	got := c.Read(sim.Time(time.Second))
	want := int64(time.Second) - int64(20*time.Microsecond)
	if got != want {
		t.Fatalf("Read = %d, want %d", got, want)
	}
}

func TestQuantizedFloors(t *testing.T) {
	c := Quantized{Base: Perfect{}, Step: 8 * time.Nanosecond}
	if got := c.Read(15); got != 8 {
		t.Fatalf("Read(15) = %d", got)
	}
	if got := c.Read(16); got != 16 {
		t.Fatalf("Read(16) = %d", got)
	}
	if got := c.Read(7); got != 0 {
		t.Fatalf("Read(7) = %d", got)
	}
}

func TestQuantizedStepOneIsIdentity(t *testing.T) {
	c := Quantized{Base: Perfect{}, Step: 1}
	if got := c.Read(12345); got != 12345 {
		t.Fatalf("Read = %d", got)
	}
}

func TestQuantizedPropertyMultipleOfStep(t *testing.T) {
	c := Quantized{Base: Perfect{}, Step: 8 * time.Nanosecond}
	f := func(v uint32) bool {
		r := c.Read(sim.Time(v))
		return r%8 == 0 && r <= int64(v) && int64(v)-r < 8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
