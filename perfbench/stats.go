package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the sample count a reported percentile must leave above it:
// a tail percentile is only quoted when at least this many samples lie
// beyond it, so one outlier cannot be the whole tail.
const minBeyond = 10

// tailLadder lists the percentiles tailOf may quote, highest first.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// supports reports whether n samples leave at least minBeyond samples
// beyond the nearest-rank q-th percentile.
func supports(n int, q float64) bool {
	return n > 0 && n-rank(n, q) >= minBeyond
}

// rank is the 1-based nearest-rank index of the q-th percentile of n
// samples.
func rank(n int, q float64) int {
	k := int(math.Ceil(q*float64(n) - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// percentile returns the nearest-rank q-th percentile of sorted samples.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), q)-1]
}

// tailOf returns the highest percentile of tailLadder that the sample
// supports, with its value; ok is false when not even the median has
// minBeyond samples beyond it.
func tailOf(sorted []float64) (q, v float64, ok bool) {
	for _, q := range tailLadder {
		if supports(len(sorted), q) {
			return q, percentile(sorted, q), true
		}
	}
	return 0, math.NaN(), false
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of xs (the mean of the middle pair for even
// counts), or NaN for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean returns the arithmetic mean of xs, or 0 for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
