package main

import (
	"math"
	"sort"
)

// median returns the middle value (the mean of the two middle values for an
// even count); NaN for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (its default "exclusive"
// method), so spreads computed here match that reference exactly. With
// fewer than two values both quartiles are the value itself (NaN for none).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	m := n + 1
	cut := func(i int) float64 {
		j := i * m / 4
		// Clamp to 1..n-1 as the exclusive method does, then interpolate
		// (or extrapolate, past the clamp) with exact integer weights.
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}
