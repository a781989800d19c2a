package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// samples. ok is false when fewer than minBeyond samples lie beyond it, in
// which case the percentile must not be reported.
func percentile(samples []float64, p float64) (v float64, ok bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(n))) - 1
	k = max(0, min(k, n-1))
	return s[k], n-1-k >= minBeyond
}

// median is the middle sample, or the mean of the two middle samples.
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
