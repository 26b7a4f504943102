// Package jsonenc appends JSON scalars byte for byte as encoding/json's
// Marshal writes them, for the hand-written encoders of canonical
// documents (result-cache keys, canonical profiles) that must produce
// exactly encoding/json's bytes without its reflection.  The tests hold
// both appenders to json.Marshal.
package jsonenc

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// UnsupportedValueError reports a float JSON cannot represent (NaN or an
// infinity); its message is encoding/json's for the same value.
type UnsupportedValueError struct{ Value float64 }

func (e *UnsupportedValueError) Error() string {
	return "json: unsupported value: " + strconv.FormatFloat(e.Value, 'g', -1, 64)
}

// AppendFloat appends f in encoding/json's float64 format: the shortest
// decimal, in exponent form below 1e-6 and from 1e21 on, with a
// two-digit negative exponent shortened (1e-07 becomes 1e-7).  NaN and
// the infinities append nothing and return an *UnsupportedValueError.
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, &UnsupportedValueError{f}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}

const hexDigits = "0123456789abcdef"

// AppendString appends s as a JSON string with encoding/json's default
// (HTML-safe) escaping: '"' and '\\' backslashed; \b, \f, \n, \r and \t
// by name; other control bytes and '<', '>', '&' as \u00XX; U+2028 and
// U+2029 as \u2028 and \u2029; each byte of invalid UTF-8 as \ufffd.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
