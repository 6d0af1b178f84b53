package intnet

import "testing"

// FuzzParseSLOPlan: the -slo flag and a gateway run spec's "slo" field
// hand ParseSLOPlan bytes from outside the program. It must never
// panic; an accepted plan bounds something a watchdog can breach (every
// loss fraction in (0,1), every duration positive), and its String()
// re-parses to the same objectives in the same order.
func FuzzParseSLOPlan(f *testing.F) {
	// The grammar's documented examples; testdata/fuzz holds the edge
	// cases (NaN and infinite fractions, exponents, colons in targets).
	for _, spec := range []string{
		"",
		"latency:vplc1<500µs",
		"jitter:*<50µs,loss:*<0.01",
		"latency:refl<250µs,jitter:refl<50µs,loss:*<0.01",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParseSLOPlan(spec)
		if err != nil {
			return
		}
		for i, o := range p {
			if o.Kind == SLOLoss && !(o.Frac > 0 && o.Frac < 1) {
				t.Fatalf("ParseSLOPlan(%q) objective %d: loss fraction %v outside (0,1)", spec, i, o.Frac)
			}
			if o.Kind != SLOLoss && o.Bound <= 0 {
				t.Fatalf("ParseSLOPlan(%q) objective %d: bound %v is not positive", spec, i, o.Bound)
			}
		}
		q, err := ParseSLOPlan(p.String())
		if err != nil {
			t.Fatalf("ParseSLOPlan(%q) renders as %q, which does not parse: %v", spec, p.String(), err)
		}
		if len(q) != len(p) {
			t.Fatalf("ParseSLOPlan(%q): %d objectives, %d after the round trip through %q", spec, len(p), len(q), p.String())
		}
		for i := range p {
			if p[i] != q[i] {
				t.Fatalf("ParseSLOPlan(%q) objective %d: %+v, %+v after the round trip through %q", spec, i, p[i], q[i], p.String())
			}
		}
	})
}
