package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: a p95 over 40 samples is the second-largest value, not a p95.
const minTail = 10

// percentileLadder lists the percentiles a timing may be summarized by, in
// ascending order.
var percentileLadder = []float64{0.50, 0.90, 0.95, 0.99, 0.999}

// rankIndex returns the 0-based nearest-rank index of quantile q among n
// sorted samples. The epsilon keeps 0.95·200 at rank 190, not 191, when the
// product lands a hair above the integer in floating point.
func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n)-1e-9)) - 1
	return min(max(i, 0), n-1)
}

// beyond returns how many of n samples lie above the nearest-rank quantile q.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankIndex(n, q)
}

// supports reports whether n samples leave at least minTail samples beyond
// quantile q.
func supports(n int, q float64) bool { return beyond(n, q) >= minTail }

// highestPercentile returns the highest ladder percentile that n samples
// support, or 0 when even the median has fewer than minTail samples above it.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, q := range percentileLadder {
		if supports(n, q) {
			best = q
		}
	}
	return best
}

// quantile returns the nearest-rank q-quantile of xs (0 when xs is empty)
// without reordering xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankIndex(len(s), q)]
}

// median is the 0.5 quantile.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean returns the arithmetic mean of xs (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
