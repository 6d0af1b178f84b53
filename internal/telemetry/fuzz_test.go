package telemetry

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadJSONL: a -trace file is read back by tools and tests, so
// ReadJSONL sees bytes the program did not write. It must never panic,
// and an accepted trace written back with WriteJSONL reads back as the
// same events.
func FuzzReadJSONL(f *testing.F) {
	// Lines in the shape the exporter writes; testdata/fuzz holds the
	// edge cases (unknown kinds, escaped strings, numbers out of range).
	for _, trace := range []string{
		"",
		`{"t":0,"kind":"host-tx","node":"vplc1","port":1,"frame":1,"prio":6}` + "\n",
		`{"t":1200,"kind":"drop","cause":"overflow","node":"sw1","port":2,"frame":7}` + "\n" +
			`{"t":1300,"kind":"fault-inject","node":"vplc1","detail":"hoststall:vplc1@1.3s"}` + "\n",
	} {
		f.Add([]byte(trace))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, events); err != nil {
			t.Fatalf("WriteJSONL of an accepted trace: %v", err)
		}
		again, err := ReadJSONL(&buf)
		if err != nil {
			t.Fatalf("trace %q re-exports as %q, which does not read: %v", data, buf.Bytes(), err)
		}
		if !reflect.DeepEqual(events, again) {
			t.Fatalf("trace %q: %+v, %+v after WriteJSONL and ReadJSONL", data, events, again)
		}
	})
}
