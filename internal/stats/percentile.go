package stats

import "math"

// Percentile returns the nearest-rank p-quantile (p in 0..1) of an
// ascending-sorted sample: the smallest element with at least p·n of the
// sample at or below it, so every reported percentile is an observed value
// and never an interpolated one. An empty sample yields the zero value.
func Percentile[T any](sorted []T, p float64) T {
	if len(sorted) == 0 {
		var zero T
		return zero
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}
