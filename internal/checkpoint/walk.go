package checkpoint

import "fmt"

// Codec walks a value's fields in their frozen wire order. Built over an
// Encoder it appends every field it is shown; built over a Decoder it
// fills every field from the payload. A checkpointed type therefore has
// one walk function, one field list, where an encode half and a decode
// half would have to be kept in step by hand.
type Codec struct {
	enc *Encoder
	dec *Decoder
}

// Decoding reports whether the walk fills fields (true) or writes them.
// A walk needs it only where a field is not stored as it is encoded.
func (c *Codec) Decoding() bool { return c.dec != nil }

// Bool walks a boolean byte.
func (c *Codec) Bool(v *bool) {
	if c.dec != nil {
		*v = c.dec.Bool()
	} else {
		c.enc.Bool(*v)
	}
}

// F64 walks a float64 by its IEEE-754 bits.
func (c *Codec) F64(v *float64) {
	if c.dec != nil {
		*v = c.dec.F64()
	} else {
		c.enc.F64(*v)
	}
}

// Str walks a length-prefixed string.
func (c *Codec) Str(v *string) {
	if c.dec != nil {
		*v = c.dec.Str()
	} else {
		c.enc.Str(*v)
	}
}

// Int walks any integer-kinded field — counts, seeds, durations,
// instants, enums — as eight little-endian bytes.
func Int[T ~int | ~int64 | ~uint64](c *Codec, v *T) {
	if c.dec != nil {
		*v = T(c.dec.U64())
	} else {
		c.enc.U64(uint64(*v))
	}
}

// Slice walks an eight-byte count and then each element through elem.
// Decoding appends element by element and stops at the first short
// read, so a forged count cannot size an allocation; a count of zero
// decodes to a nil slice.
func Slice[T any](c *Codec, s *[]T, elem func(*Codec, *T)) {
	n := len(*s)
	Int(c, &n)
	if c.dec == nil {
		for i := range *s {
			elem(c, &(*s)[i])
		}
		return
	}
	*s = nil
	for i := 0; i < n && c.dec.err == nil; i++ {
		var v T
		elem(c, &v)
		*s = append(*s, v)
	}
}

// Encode returns the bytes walk writes for v.
func Encode[T any](walk func(*Codec, *T), v *T) []byte {
	e := NewEncoder()
	walk(&Codec{enc: e}, v)
	return e.Data()
}

// Decode fills v from b, which must hold exactly what walk reads: a
// short payload and bytes left over are both ErrCorrupt.
func Decode[T any](walk func(*Codec, *T), b []byte, v *T) error {
	d := NewDecoder(b)
	walk(&Codec{dec: d}, v) // errors stay sticky on d
	return d.Finish()
}

// Finish reports how the decode went once the caller has read all it
// expects: the first short read, or bytes nothing asked for, as
// ErrCorrupt.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, d.err)
	}
	if n := d.Remaining(); n != 0 {
		return fmt.Errorf("%w: %d bytes after the last field", ErrCorrupt, n)
	}
	return nil
}
