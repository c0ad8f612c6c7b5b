// Package stats provides small statistical helpers used across the
// repository: summary statistics (mean, median, percentiles) and seeded
// random-number helpers that keep every experiment deterministic and
// reproducible.
package stats

import (
	"math"
	"sort"
)

// Summary holds the order statistics reported in the paper's Table 4
// (average, median, maximum and 90th percentile).
type Summary struct {
	Count  int
	Mean   float64
	Median float64
	Max    float64
	Min    float64
	P90    float64
	Stddev float64
}

// Summarize computes a Summary over xs. It copies xs before sorting, so the
// caller's slice is left untouched. An empty input yields a zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)

	var sum float64
	for _, x := range sorted {
		sum += x
	}
	mean := sum / float64(len(sorted))

	var sq float64
	for _, x := range sorted {
		d := x - mean
		sq += d * d
	}
	std := 0.0
	if len(sorted) > 1 {
		std = math.Sqrt(sq / float64(len(sorted)-1))
	}

	return Summary{
		Count:  len(sorted),
		Mean:   mean,
		Median: Percentile(sorted, 0.5),
		Max:    sorted[len(sorted)-1],
		Min:    sorted[0],
		P90:    Percentile(sorted, 0.9),
		Stddev: std,
	}
}

// Percentile returns the p-th percentile (p in [0,1]) of a sorted slice
// using linear interpolation between closest ranks. The slice must be
// sorted in ascending order.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	rank := p * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// MeanInts returns the arithmetic mean of integer observations.
func MeanInts(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum int
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(len(xs))
}
