// Package enc holds the zero-allocation wire encoders shared by the
// observability plane: SSE framing and the JSON number/string appends
// that the obs broker, the steelnetd hub, the lifecycle journal and the
// time-series history endpoint all render with. Every function appends
// into a caller-owned buffer and returns the extended slice, so hot
// paths that reuse their buffers stay 0 allocs/op steady state.
//
// The encoders exist in one place because they define a wire dialect:
// floats render shortest-'g' with non-finite values clamped to null
// (JSON has no Inf/NaN), strings render as JSON that keeps every
// printable rune verbatim, and SSE frames are
// "event: <e>\ndata: <d>\n\n" exactly. Two hand-rolled
// copies of that dialect drifted once (obs vs hub); this package is the
// single definition plus the tests that pin it against encoding/json.
package enc

import (
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// maxJSONFloat is the largest finite float64; anything beyond it (or
// NaN) is not representable in JSON and clamps to null.
const maxJSONFloat = 1.7976931348623157e308

// AppendSSE appends one server-sent-events frame:
//
//	event: <event>\ndata: <data>\n\n
//
// The payload bytes are copied, so the frame is self-contained and can
// be shared across subscriber queues after the caller reuses data.
func AppendSSE(b []byte, event string, data []byte) []byte {
	b = append(b, "event: "...)
	b = append(b, event...)
	b = append(b, "\ndata: "...)
	b = append(b, data...)
	b = append(b, "\n\n"...)
	return b
}

// AppendFloat appends v as a JSON number: strconv 'g', shortest form,
// with NaN and ±Inf clamped to null.
func AppendFloat(b []byte, v float64) []byte {
	if v != v || v > maxJSONFloat || v < -maxJSONFloat {
		return append(b, "null"...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// AppendString appends s as a JSON string. Printable runes go out
// verbatim, as strconv.Quote writes them, and so do the escapes the two
// dialects share: \", \\, \b, \f, \n, \r and \t. Every other rune is
// a \u escape, a surrogate pair above U+FFFF, and each run of invalid
// UTF-8 bytes is one \ufffd, as strings.ToValidUTF8 would replace it.
func AppendString(b []byte, s string) []byte {
	b = append(b, '"')
	done := 0 // s[done:i] is still to be copied verbatim
	invalid := false
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			invalid = false
			if c >= ' ' && c != '"' && c != '\\' && c != 0x7f {
				i++
				continue
			}
			b = append(b, s[done:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, `\b`...)
			case '\f':
				b = append(b, `\f`...)
			case '\n':
				b = append(b, `\n`...)
			case '\r':
				b = append(b, `\r`...)
			case '\t':
				b = append(b, `\t`...)
			default:
				b = appendU4(b, rune(c))
			}
			i++
			done = i
			continue
		}
		r, n := utf8.DecodeRuneInString(s[i:])
		switch {
		case n == 1: // r == utf8.RuneError from an invalid byte
			b = append(b, s[done:i]...)
			if !invalid {
				b = append(b, `\ufffd`...)
			}
			invalid = true
		case strconv.IsPrint(r):
			invalid = false
			i += n
			continue
		default:
			invalid = false
			b = append(b, s[done:i]...)
			if r > 0xffff {
				hi, lo := utf16.EncodeRune(r)
				b = appendU4(appendU4(b, hi), lo)
			} else {
				b = appendU4(b, r)
			}
		}
		i += n
		done = i
	}
	b = append(b, s[done:]...)
	return append(b, '"')
}

// appendU4 appends the \uXXXX escape of a rune at most U+FFFF.
func appendU4(b []byte, r rune) []byte {
	const hex = "0123456789abcdef"
	return append(b, '\\', 'u', hex[r>>12&0xf], hex[r>>8&0xf], hex[r>>4&0xf], hex[r&0xf])
}

// AppendUint and AppendInt append base-10 integers; they exist so
// callers of this package never mix dialects by importing strconv
// alongside it.
func AppendUint(b []byte, v uint64) []byte { return strconv.AppendUint(b, v, 10) }

// AppendInt appends v in base 10.
func AppendInt(b []byte, v int64) []byte { return strconv.AppendInt(b, v, 10) }
