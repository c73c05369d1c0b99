package main

import (
	"math"
	"sort"
)

// tailPercentiles are the candidates for a sample's reported tail, highest
// first. tail picks the highest one that still has at least tailBeyond
// samples above it, so a tail figure always rests on ten observations.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

const tailBeyond = 10

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); NaN for an empty sample.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points that split xs into four equal
// groups, by the same "exclusive" method as Python's
// statistics.quantiles(xs, n=4), so figures computed here and by a
// Python reader agree. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return 0, 0, 0, false
	}
	s := sorted(xs)
	m := n + 1
	cut := func(i int) float64 {
		// Clamping j before taking delta extrapolates past the extreme
		// samples exactly as Python does for small n.
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3), true
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks (p in [0, 100]).
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return math.NaN()
	}
	r := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(r))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	f := r - float64(lo)
	return s[lo] + f*(s[lo+1]-s[lo])
}

// tail returns the highest candidate percentile of xs that has at least
// ten samples beyond it, and its value. ok is false when even the median
// has fewer than ten samples above it (fewer than twenty samples).
func tail(xs []float64) (p, v float64, ok bool) {
	n := float64(len(xs))
	for _, p := range tailPercentiles {
		// The epsilon absorbs the rounding of 100-p (e.g. 100-99.9).
		if (100-p)*n >= 100*tailBeyond-1e-6 {
			return p, percentile(xs, p), true
		}
	}
	return 0, 0, false
}
