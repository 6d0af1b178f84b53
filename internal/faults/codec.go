package faults

import "steelnet/internal/checkpoint"

// WalkPlan is an optional plan's field list in the deterministic
// checkpoint encoding. A presence flag leads, so "no plan" (nil) and
// "empty plan" restore as exactly what they were.
func WalkPlan(c *checkpoint.Codec, p **Plan) {
	has := *p != nil
	c.Bool(&has)
	if !has {
		*p = nil
		return
	}
	if c.Decoding() {
		*p = &Plan{}
	}
	c.Str(&(*p).Name)
	checkpoint.Slice(c, &(*p).Events, func(c *checkpoint.Codec, ev *Event) {
		checkpoint.Int(c, &ev.At)
		checkpoint.Int(c, &ev.Kind)
		c.Str(&ev.Target)
		checkpoint.Int(c, &ev.Duration)
		c.F64(&ev.Magnitude)
	})
}
