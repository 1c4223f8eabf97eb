package main

import (
	"math"
	"testing"
)

// The expected quartiles are those of Python's statistics.quantiles(xs,
// n=4), the reference the benchmark's spreads are judged by.
func TestMedianAndQuartilesMatchPythonStatistics(t *testing.T) {
	cases := []struct {
		xs        []float64
		med       float64
		q1, q3    float64
		tolerance float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25, 0},
		{[]float64{3.5, 1.25, 9.0, 2.0}, 2.75, 1.4375, 7.625, 0},
		{[]float64{5, 1}, 3, 0, 6, 0}, // the exclusive method extrapolates
		{[]float64{7, 7, 7}, 7, 7, 7, 0},
		{[]float64{10.2, 9.8, 10.0, 10.1, 9.9, 10.3, 9.7, 10.05, 9.95, 10.15}, 10.025, 9.875, 10.1625, 1e-12},
	}
	for _, c := range cases {
		if got := median(c.xs); math.Abs(got-c.med) > c.tolerance {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.med)
		}
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > c.tolerance || math.Abs(q3-c.q3) > c.tolerance {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestStatsDoNotReorderInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	median(xs)
	quartiles(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input reordered: %v", xs)
	}
}

func TestSpreadAndEmptyInput(t *testing.T) {
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-(8.25-2.75)/5.5) > 1e-12 {
		t.Errorf("spread = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no values should be NaN")
	}
	if q1, q3 := quartiles([]float64{4}); q1 != 4 || q3 != 4 {
		t.Errorf("quartiles of one value = %v, %v", q1, q3)
	}
}
