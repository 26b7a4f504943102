package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{3, 1}, 2},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{7}, [3]float64{7, 7, 7}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
	} {
		q1, q2, q3 := quartiles(tc.in)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
				break
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i)
	}
	for _, tc := range []struct {
		in   []float64
		p    float64
		want float64
	}{
		{hundred, 50, 50},
		{hundred, 99, 99},
		{hundred, 100, 100},
		{[]float64{4, 3, 2, 1}, 50, 2},
		{[]float64{5}, 99, 5},
		{nil, 50, 0},
	} {
		if got := percentile(tc.in, tc.p); got != tc.want {
			t.Errorf("percentile(%d values, %v) = %v, want %v", len(tc.in), tc.p, got, tc.want)
		}
	}
}

func TestPairWins(t *testing.T) {
	before, after := []float64{1, 2, 3, 4}, []float64{2, 2, 1}
	if w, l, n := pairWins(before, after, true); w != 1 || l != 1 || n != 3 {
		t.Errorf("higher better: wins %d losses %d pairs %d, want 1 1 3", w, l, n)
	}
	if w, l, n := pairWins(before, after, false); w != 1 || l != 1 || n != 3 {
		t.Errorf("lower better: wins %d losses %d pairs %d, want 1 1 3", w, l, n)
	}
}

// around returns ten values centred on c, spread ±1.
func around(c float64) []float64 {
	return []float64{c - 1, c + 1, c, c - 0.5, c + 0.5, c - 0.8, c + 0.8, c - 0.2, c + 0.2, c}
}

func TestJudge(t *testing.T) {
	wide := []float64{60, 140, 100, 70, 130, 80, 120, 90, 110, 100}
	for _, tc := range []struct {
		name          string
		before, after []float64
		higher        bool
		bound         float64
		want          string
	}{
		{"clear gain", around(100), around(120), true, 0.1, verdictGain},
		{"gain on a lower-better metric", around(100), around(80), false, 0.1, verdictGain},
		{"worse beyond the bound", around(100), around(80), true, 0.1, verdictRegressed},
		{"worse within the bound", around(100), around(97), true, 0.1, verdictSame},
		{"spread wider than the bound", wide, around(100), true, 0.1, verdictUnresolved},
		{"wide but every run better", wide, around(200), true, 0.1, verdictGain},
		{"unbounded loss", around(100), around(80), true, 0, verdictLoss},
		{"unbounded noise", around(100), around(100.1), true, 0, verdictSame},
		{"no runs", nil, around(100), true, 0.1, verdictUnresolved},
	} {
		if got := judge(tc.before, tc.after, tc.higher, tc.bound); got != tc.want {
			t.Errorf("%s: judge = %s, want %s", tc.name, got, tc.want)
		}
	}
}
