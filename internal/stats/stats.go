// Package stats implements the column statistics the optimizer consults
// for cardinality estimation: an equi-width histogram over a table's C2
// column. The paper's experiments use uniformly distributed data, where the
// uniform assumption built into a naive estimator is exact; the histogram
// makes the optimizer robust on skewed data too (see the Zipf-distributed
// table backing), which is how commercial engines — including the paper's
// SQL Anywhere, whose self-managing statistics the authors cite — actually
// estimate predicate selectivities.
package stats

import (
	"fmt"
	"math/bits"

	"pioqo/internal/table"
)

// Histogram is an equi-width histogram over [0, domain), carrying the
// column's distinct-value count alongside the bucket counts.
type Histogram struct {
	domain   int64
	width    float64
	buckets  []int64 // row counts per bucket
	rows     int64
	distinct int64
}

// DefaultBuckets is the default bucket count for BuildHistogram.
const DefaultBuckets = 128

// BuildHistogram scans t's C2 values and builds a histogram with the given
// bucket count (0 means DefaultBuckets). The scan is a host-side pass over
// the generated data — the modelled engine would gather these statistics
// during load, as SQL Anywhere does.
func BuildHistogram(t table.Table, buckets int) *Histogram {
	if buckets <= 0 {
		buckets = DefaultBuckets
	}
	domain := t.KeyDomain()
	if int64(buckets) > domain {
		buckets = int(domain)
	}
	h := &Histogram{
		domain:  domain,
		width:   float64(domain) / float64(buckets),
		buckets: make([]int64, buckets),
		rows:    t.Rows(),
	}
	// One bit per key of [0, domain) marks the keys seen: no map, and the
	// distinct count is the bits set.
	seen := make([]uint64, (domain+63)/64)
	for r := int64(0); r < t.Rows(); r++ {
		v := t.RowAt(r).C2
		h.buckets[h.bucketOf(v)]++
		seen[uint64(v)/64] |= 1 << (uint64(v) % 64)
	}
	for _, w := range seen {
		h.distinct += int64(bits.OnesCount64(w))
	}
	return h
}

func (h *Histogram) bucketOf(v int64) int {
	b := int(float64(v) / h.width)
	if b >= len(h.buckets) {
		b = len(h.buckets) - 1
	}
	if b < 0 {
		b = 0
	}
	return b
}

// Buckets returns the number of buckets.
func (h *Histogram) Buckets() int { return len(h.buckets) }

// Rows returns the total row count the histogram covers.
func (h *Histogram) Rows() int64 { return h.rows }

// Distinct returns the number of distinct C2 values. Join planning uses it
// to estimate how many index lookups an index nested-loop join would make.
func (h *Histogram) Distinct() int64 { return h.distinct }

// DistinctRatio returns distinct/rows, the per-row probability of carrying
// a previously unseen key.
func (h *Histogram) DistinctRatio() float64 {
	if h.rows == 0 {
		return 1
	}
	return float64(h.distinct) / float64(h.rows)
}

// EstimateRange estimates the number of rows with lo <= C2 <= hi, assuming
// uniformity within each bucket (the standard equi-width interpolation).
func (h *Histogram) EstimateRange(lo, hi int64) float64 {
	if hi < lo {
		return 0
	}
	if lo < 0 {
		lo = 0
	}
	if hi >= h.domain {
		hi = h.domain - 1
	}
	if lo >= h.domain || hi < 0 {
		return 0
	}
	loF, hiF := float64(lo), float64(hi)+1 // half-open [loF, hiF)
	est := 0.0
	first, last := h.bucketOf(lo), h.bucketOf(hi)
	for b := first; b <= last; b++ {
		bLo := float64(b) * h.width
		bHi := bLo + h.width
		if b == len(h.buckets)-1 {
			bHi = float64(h.domain)
		}
		overlapLo, overlapHi := maxF(bLo, loF), minF(bHi, hiF)
		if overlapHi <= overlapLo {
			continue
		}
		est += float64(h.buckets[b]) * (overlapHi - overlapLo) / (bHi - bLo)
	}
	return est
}

// Selectivity estimates the fraction of rows matched by [lo, hi].
func (h *Histogram) Selectivity(lo, hi int64) float64 {
	if h.rows == 0 {
		return 0
	}
	return h.EstimateRange(lo, hi) / float64(h.rows)
}

// String summarises the histogram shape for diagnostics.
func (h *Histogram) String() string {
	var minB, maxB int64
	first := true
	for _, c := range h.buckets {
		if first || c < minB {
			minB = c
		}
		if first || c > maxB {
			maxB = c
		}
		first = false
	}
	return fmt.Sprintf("histogram{%d buckets over [0,%d), rows=%d, bucket min=%d max=%d}",
		len(h.buckets), h.domain, h.rows, minB, maxB)
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
