package checkpoint

import "math"

// Digest is an incremental 64-bit state hash (FNV-1a core). Harnesses
// fold their live state into a Digest at a checkpoint instant; a restore
// replays to the same instant and must reproduce the same sum, which is
// how a checkpoint detects divergence instead of silently continuing
// from a state the original run never had. Folding is cheap (a multiply
// and a xor per byte-group), so snapshots cost microseconds even on
// large scenarios.
//
// The fold order matters: callers must fold fields in a fixed, documented
// order (sorted where the underlying container is a map). Two digests are
// comparable only when produced by the same fold sequence.
type Digest struct {
	h uint64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// NewDigest returns an empty digest.
func NewDigest() *Digest { return &Digest{h: fnvOffset} }

// U64 folds one 64-bit value.
func (d *Digest) U64(v uint64) {
	h := d.h
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	d.h = h
}

// I64 folds one signed 64-bit value.
func (d *Digest) I64(v int64) { d.U64(uint64(v)) }

// Int folds an int.
func (d *Digest) Int(v int) { d.U64(uint64(int64(v))) }

// Bool folds a boolean.
func (d *Digest) Bool(v bool) {
	if v {
		d.U64(1)
	} else {
		d.U64(0)
	}
}

// F64 folds a float64 by its IEEE-754 bits (bit-exact, like the
// determinism contract it guards).
func (d *Digest) F64(v float64) { d.U64(math.Float64bits(v)) }

// Bytes folds a byte slice, length-prefixed so ("ab","c") and ("a","bc")
// fold differently.
func (d *Digest) Bytes(b []byte) { d.BytesThenZeros(b, 0) }

// BytesThenZeros folds b followed by n zero bytes exactly as Bytes
// folds their concatenation, without the zeros being stored: a zero
// byte leaves FNV-1a's xor a no-op, so each costs one multiply.
func (d *Digest) BytesThenZeros(b []byte, n int) {
	d.U64(uint64(len(b) + n))
	h := d.h
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	for ; n > 0; n-- {
		h *= fnvPrime
	}
	d.h = h
}

// Str folds a string, length-prefixed.
func (d *Digest) Str(s string) {
	d.U64(uint64(len(s)))
	h := d.h
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	d.h = h
}

// Sum returns the current digest value. Folding may continue afterwards.
func (d *Digest) Sum() uint64 { return d.h }
