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
