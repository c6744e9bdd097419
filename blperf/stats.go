package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a tail percentile before
// it is reported: with fewer, one slow sample moves it.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of ascending samples,
// and whether at least minBeyond samples lie above it.
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	idx = max(0, min(idx, n-1))
	return sorted[idx], n-1-idx >= minBeyond
}

// median returns the middle of the samples (the mean of the middle two
// for an even count); it does not reorder its argument.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// frac is a/b, or 0 when nothing was counted.
func frac(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
