package main

import "testing"

func TestHighestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0},
		{19, 0},     // the median would have 9 samples above it
		{20, 0.50},  // ... and here 10
		{99, 0.50},  // p90 would have 9 beyond
		{100, 0.90}, // p90 has 10 beyond, p95 only 5
		{199, 0.90},
		{200, 0.95}, // the serving workloads' minimum job count
		{999, 0.95},
		{1000, 0.99},
		{10000, 0.999},
	} {
		if got := highestPercentile(tc.n); got != tc.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	if beyond(200, 0.95) != 10 {
		t.Errorf("beyond(200, 0.95) = %d, want 10", beyond(200, 0.95))
	}
}

func TestQuantileIsNearestRank(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 200..1, unsorted on purpose
	}
	if got := quantile(xs, 0.95); got != 190 {
		t.Errorf("p95 of 1..200 = %v, want 190 (10 samples beyond)", got)
	}
	if got := median(xs); got != 100 {
		t.Errorf("median of 1..200 = %v, want 100", got)
	}
	if xs[0] != 200 {
		t.Error("quantile reordered its input")
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples must be 0")
	}
}
