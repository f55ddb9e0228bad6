package main

import (
	"math"
	"sort"
)

// minBeyond is the percentile rule: a percentile is reported only when at
// least this many samples lie beyond it, so a tail figure never rests on a
// handful of outliers.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of samples
// and whether at least minBeyond samples lie strictly beyond it. The
// samples are sorted in place.
func percentile(samples []float64, q float64) (float64, bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	sort.Float64s(samples)
	return samples[n-1-beyond(n, q)], tailOK(n, q)
}

// beyond is how many of n samples lie strictly beyond the nearest-rank
// q-quantile.
func beyond(n int, q float64) int {
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	return n - 1 - rank
}

// tailOK reports whether n samples satisfy the percentile rule for q.
func tailOK(n int, q float64) bool { return beyond(n, q) >= minBeyond }

// median returns the median of samples without reordering them.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is num/den with a zero base reporting zero rather than NaN or
// +Inf, which JSON cannot carry.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
