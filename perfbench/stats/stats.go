// Package stats holds the order statistics the benchmark reports.
package stats

import (
	"math"
	"sort"
)

// Median returns the middle of xs (the mean of the two middle values
// for an even count); NaN for an empty slice. xs is not modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the three cut points that split xs into four
// groups, computed exactly as Python's statistics.quantiles(xs, n=4)
// does with its default "exclusive" method, so spreads printed here
// match the ones the benchmark's acceptance is judged by. A single
// value is its own quartiles.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	switch len(xs) {
	case 0:
		nan := math.NaN()
		return nan, nan, nan
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := sorted(xs)
	m := len(s) + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		// Python clamps j into [1, n-1] before taking delta, so the
		// outer quartiles of very small samples extrapolate.
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// Spread is the interquartile distance as a share of the median: the
// steadiness figure each end-to-end metric's bound is compared with.
func Spread(xs []float64) float64 {
	q1, _, q3 := Quartiles(xs)
	return (q3 - q1) / Median(xs)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
