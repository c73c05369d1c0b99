package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of an empty sample should be NaN")
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
	}
	for _, c := range cases {
		q1, q2, q3, ok := quartiles(c.xs)
		if !ok || q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v %v, want %v %v %v", c.xs, q1, q2, q3, ok, c.q1, c.q2, c.q3)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample should not be defined")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	for p, want := range map[float64]float64{0: 10, 25: 20, 50: 30, 90: 46, 100: 50} {
		if got := percentile(xs, p); math.Abs(got-want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	cases := []struct {
		n    int
		p    float64
		isOK bool
	}{
		{19, 0, false},  // the median has only 9.5 samples beyond it
		{20, 50, true},  // exactly ten beyond the median
		{100, 90, true}, // p95 would leave five
		{200, 95, true},
		{999, 95, true}, // p99 would leave 9.99
		{1000, 99, true},
		{10000, 99.9, true},
	}
	for _, c := range cases {
		p, v, ok := tail(seq(c.n))
		if ok != c.isOK || p != c.p {
			t.Errorf("tail(n=%d) = p%v ok=%v, want p%v ok=%v", c.n, p, ok, c.p, c.isOK)
			continue
		}
		if ok {
			if want := percentile(seq(c.n), p); v != want {
				t.Errorf("tail(n=%d) value %v, want %v", c.n, v, want)
			}
		}
	}
}
