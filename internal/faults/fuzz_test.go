package faults

import "testing"

// FuzzParsePlan: the -faults flag and a run spec's "faults" field hand
// ParsePlan bytes from outside the program. It must never panic, and an
// accepted plan must survive its own rendering: String() re-parses to
// the same events in the same order, so the one-line spec printed with
// a trace really does re-run it.
func FuzzParsePlan(f *testing.F) {
	// The grammar's documented examples; testdata/fuzz holds the edge
	// cases (NaN and signed-zero magnitudes, exponents, colons in targets).
	for _, spec := range []string{
		"",
		"hoststall:vplc1@1.3s",
		"linkflap:ring2@500ms+1s,loss:dev-dp@0s+3s*0.05",
		"hoststall:vplc1@1.3s+400ms,loss:dp.2@500ms+1s*0.2",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParsePlan(spec)
		if err != nil {
			return
		}
		q, err := ParsePlan(p.String())
		if err != nil {
			t.Fatalf("ParsePlan(%q) renders as %q, which does not parse: %v", spec, p.String(), err)
		}
		if len(q.Events) != len(p.Events) {
			t.Fatalf("ParsePlan(%q): %d events, %d after the round trip through %q", spec, len(p.Events), len(q.Events), p.String())
		}
		for i, a := range p.Events {
			b := q.Events[i]
			if a != b {
				t.Fatalf("ParsePlan(%q) event %d: %+v, %+v after the round trip through %q", spec, i, a, b, p.String())
			}
		}
	})
}
