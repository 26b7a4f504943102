package jsonenc

import (
	"encoding/json"
	"errors"
	"math"
	"testing"
)

// TestAppendStringMatchesJSON holds AppendString to json.Marshal over
// every escaping class: HTML-unsafe bytes, every control byte, U+2028
// and U+2029, and invalid or truncated UTF-8.
func TestAppendStringMatchesJSON(t *testing.T) {
	cases := []string{
		"", "plain", `quote " and \ backslash`, "<a href='x'>&amp;</a>",
		"line\u2028para\u2029end", "\xff", "a\xc3", "\xe2\x80", "\xed\xa0\x80",
		"h\u00e9llo \u2713 \U0001d11e", "\x7f del",
	}
	for b := 0; b < 0x20; b++ {
		cases = append(cases, "x"+string(rune(b))+"y")
	}
	for _, s := range cases {
		checkString(t, s)
	}
}

// FuzzAppendString compares AppendString with json.Marshal on arbitrary
// strings.
func FuzzAppendString(f *testing.F) {
	f.Add("a<b>&c\u2028\x00\xff")
	f.Fuzz(checkString)
}

func checkString(t *testing.T, s string) {
	want, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := AppendString(nil, s); string(got) != string(want) {
		t.Errorf("AppendString(%q) = %s, json.Marshal %s", s, got, want)
	}
}

// TestAppendFloatMatchesJSON holds AppendFloat to json.Marshal across the
// format switch points, signed zeros and the float64 range, and checks
// that NaN and the infinities fail with encoding/json's message.
func TestAppendFloatMatchesJSON(t *testing.T) {
	cases := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.999999e-7, 1e-7, -1e-7,
		1e20, 1e21, 9.99999e20, 123456789.123, 5e-324, math.MaxFloat64,
		-math.MaxFloat64, math.SmallestNonzeroFloat64, 1e-100, 1.5e300, 1e-9,
	}
	for _, f := range cases {
		checkFloat(t, f)
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, jerr := json.Marshal(f)
		got, err := AppendFloat([]byte("x"), f)
		var uv *UnsupportedValueError
		if !errors.As(err, &uv) || string(got) != "x" {
			t.Fatalf("AppendFloat(%v) = %q, %v; want no bytes and an UnsupportedValueError", f, got, err)
		}
		if err.Error() != jerr.Error() {
			t.Errorf("AppendFloat(%v) error %q, json.Marshal %q", f, err, jerr)
		}
	}
}

// FuzzAppendFloat compares AppendFloat with json.Marshal on arbitrary
// float64 bit patterns.
func FuzzAppendFloat(f *testing.F) {
	f.Add(uint64(0x3eb0c6f7a0b5ed8d)) // 1e-6
	f.Fuzz(func(t *testing.T, bits uint64) {
		if v := math.Float64frombits(bits); !math.IsNaN(v) && !math.IsInf(v, 0) {
			checkFloat(t, v)
		}
	})
}

func checkFloat(t *testing.T, f float64) {
	want, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	got, err := AppendFloat(nil, f)
	if err != nil || string(got) != string(want) {
		t.Errorf("AppendFloat(%v) = %s, %v; json.Marshal %s", f, got, err, want)
	}
}
