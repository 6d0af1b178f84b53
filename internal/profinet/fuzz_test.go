package profinet

import (
	"testing"
	"testing/quick"
)

// TestUnmarshalersNeverPanic feeds arbitrary bytes to every decoder:
// industrial parsers face hostile or corrupted frames and must fail
// with errors, never crash a controller.
func TestUnmarshalersNeverPanic(t *testing.T) {
	decoders := []func([]byte){
		func(b []byte) { _, _ = UnmarshalConnectRequest(b) },
		func(b []byte) { _, _ = UnmarshalConnectResponse(b) },
		func(b []byte) { _, _ = UnmarshalCyclicData(b) },
		func(b []byte) { _, _ = UnmarshalAlarm(b) },
		func(b []byte) { _, _ = UnmarshalRelease(b) },
		func(b []byte) { _, _ = PeekFrameID(b) },
	}
	f := func(raw []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		for _, d := range decoders {
			d(raw)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestCyclicRoundTripProperty: any encodable frame decodes to itself.
func TestCyclicRoundTripProperty(t *testing.T) {
	f := func(arid uint32, counter uint16, status uint8, data []byte) bool {
		if len(data) > 1400 {
			data = data[:1400]
		}
		in := CyclicData{ARID: arid, CycleCounter: counter, Status: status, Data: data}
		out, err := UnmarshalCyclicData(in.Marshal())
		if err != nil {
			return false
		}
		if out.ARID != arid || out.CycleCounter != counter || out.Status != status {
			return false
		}
		if len(out.Data) != len(data) {
			return false
		}
		for i := range data {
			if out.Data[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCyclicMarshal(b *testing.B) {
	cd := CyclicData{ARID: 1, CycleCounter: 42, Status: StatusRun | StatusValid, Data: make([]byte, 20)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = cd.Marshal()
	}
}

func BenchmarkCyclicUnmarshal(b *testing.B) {
	buf := CyclicData{ARID: 1, CycleCounter: 42, Status: StatusValid, Data: make([]byte, 20)}.Marshal()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := UnmarshalCyclicData(buf); err != nil {
			b.Fatal(err)
		}
	}
}
