package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first quartile, median and third quartile of xs by
// the rule Python's statistics.quantiles(xs, n=4) uses (the "exclusive"
// method), so a spread computed here matches one computed from the same
// values in Python.  With fewer than two values every quartile is that
// value.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// percentile returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank rule: the smallest value with at least p% of the values at
// or below it.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// pairWins pairs run i of before with run i of after and counts the pairs
// in which after reads better and in which it reads worse; ties count for
// neither.
func pairWins(before, after []float64, higherBetter bool) (wins, losses, pairs int) {
	pairs = min(len(before), len(after))
	for i := 0; i < pairs; i++ {
		d := after[i] - before[i]
		if !higherBetter {
			d = -d
		}
		switch {
		case d > 0:
			wins++
		case d < 0:
			losses++
		}
	}
	return wins, losses, pairs
}

// Verdicts of judge.
const (
	verdictGain       = "gain"
	verdictLoss       = "loss"
	verdictSame       = "same"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge compares the runs of a change (after) with the runs of its parent
// (before) for one metric.
//
// A gain needs the change to win at least nine tenths of the pairs and
// the medians to differ by more than the parent's interquartile range;
// a loss is the mirror image.  For a metric with a bound (a share of the
// parent's median, > 0), a change whose median is worse by more than the
// bound has regressed, and when either side's spread (IQR over median)
// exceeds the bound the metric is unresolved unless every run of the
// change reads better than every run of the parent.  Metrics without a
// bound get gain, loss or same.
func judge(before, after []float64, higherBetter bool, bound float64) string {
	if len(before) == 0 || len(after) == 0 {
		return verdictUnresolved
	}
	q1b, medB, q3b := quartiles(before)
	q1a, medA, q3a := quartiles(after)
	better := func(x, y float64) bool {
		if higherBetter {
			return x > y
		}
		return x < y
	}
	wins, losses, pairs := pairWins(before, after, higherBetter)
	apart := math.Abs(medA-medB) > q3b-q1b
	switch {
	case 10*wins >= 9*pairs && apart && better(medA, medB):
		return verdictGain
	case bound <= 0 && 10*losses >= 9*pairs && apart && better(medB, medA):
		return verdictLoss
	case bound <= 0:
		return verdictSame
	}
	if spread(q1b, medB, q3b) > bound || spread(q1a, medA, q3a) > bound {
		if allBetter(after, before, better) {
			return verdictGain
		}
		return verdictUnresolved
	}
	worse := (medA - medB) / math.Abs(medB)
	if higherBetter {
		worse = -worse
	}
	if medB == 0 {
		worse = 0
		if better(medB, medA) {
			worse = math.Inf(1)
		}
	}
	if worse > bound {
		return verdictRegressed
	}
	return verdictSame
}

// spread is the interquartile range as a share of the median.
func spread(q1, med, q3 float64) float64 {
	if med == 0 {
		if q3 == q1 {
			return 0
		}
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(med)
}

// allBetter reports whether every value of xs is better than every value
// of ys.
func allBetter(xs, ys []float64, better func(x, y float64) bool) bool {
	for _, x := range xs {
		for _, y := range ys {
			if !better(x, y) {
				return false
			}
		}
	}
	return true
}
