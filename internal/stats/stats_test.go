package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"pioqo/internal/device"
	"pioqo/internal/disk"
	"pioqo/internal/sim"
	"pioqo/internal/table"
)

func newManager() *disk.Manager {
	return disk.NewManager(device.NewSSD(sim.NewEnv(1), device.DefaultSSDConfig()))
}

// trueCount counts rows of t with lo <= C2 <= hi.
func trueCount(t table.Table, lo, hi int64) int64 {
	n := int64(0)
	for r := int64(0); r < t.Rows(); r++ {
		if c2 := t.RowAt(r).C2; c2 >= lo && c2 <= hi {
			n++
		}
	}
	return n
}

// equivalenceTables are the tables the bitset histogram and the
// slices.Sort cuts are held to their references on: uniform and Zipf 1.3 keys, one
// shard each of a hash and a range partition (keys over the parent's
// domain, larger than the shard's rows), a one-row table and a table whose
// every row has one key.
func equivalenceTables() map[string]table.Table {
	m := newManager()
	cols := table.DrawColumns(3000, 7)
	hash, _ := table.DrawColumnsZipf(3000, 7, 1.3).Partition(4, func(k int64) int { return table.HashShard(k, 4) })
	cuts := table.EqualWidthCuts(cols.Domain, 4)
	ranged, _ := cols.Partition(4, func(k int64) int { return table.RangeShard(k, cuts) })
	oneKey := make([]int64, 500)
	for i := range oneKey {
		oneKey[i] = 41
	}
	return map[string]table.Table{
		"uniform":     table.NewMaterialized(m, "uniform", 3000, 33, 7),
		"zipf":        table.NewMaterializedZipf(m, "zipf", 3000, 33, 7, 1.3),
		"hash-shard":  table.NewMaterializedFrom(m, "hash", 33, hash[1].C1, hash[1].C2, hash[1].Domain),
		"range-shard": table.NewMaterializedFrom(m, "range", 33, ranged[2].C1, ranged[2].C2, ranged[2].Domain),
		"one-row":     table.NewMaterializedFrom(m, "one-row", 33, []int64{5}, []int64{3}, 10),
		"one-key":     table.NewMaterializedFrom(m, "one-key", 33, make([]int64, 500), oneKey, 100),
	}
}

// keysOf returns t's C2 column in row order.
func keysOf(t table.Table) []int64 {
	keys := make([]int64, t.Rows())
	for r := range keys {
		keys[r] = t.RowAt(int64(r)).C2
	}
	return keys
}

// TestHistogramMatchesMapReference: the bitset's distinct count is a map's,
// and every row lands in the bucket bucketOf names.
func TestHistogramMatchesMapReference(t *testing.T) {
	for name, tb := range equivalenceTables() {
		for _, buckets := range []int{0, 7, 1 << 20} {
			h := BuildHistogram(tb, buckets)
			want := make([]int64, h.Buckets())
			seen := make(map[int64]struct{})
			for _, key := range keysOf(tb) {
				want[h.bucketOf(key)]++
				seen[key] = struct{}{}
			}
			if !slices.Equal(h.buckets, want) {
				t.Errorf("%s, %d buckets: counts %v, want %v", name, buckets, h.buckets, want)
			}
			if h.Distinct() != int64(len(seen)) {
				t.Errorf("%s, %d buckets: Distinct() = %d, a map counts %d", name, buckets, h.Distinct(), len(seen))
			}
		}
	}
}

func TestHistogramUniformDataIsAccurate(t *testing.T) {
	tab := table.NewMaterialized(newManager(), "t", 50000, 33, 9)
	h := BuildHistogram(tab, 0)
	for _, rg := range []struct{ lo, hi int64 }{{0, 499}, {10000, 19999}, {49000, 49999}} {
		want := float64(trueCount(tab, rg.lo, rg.hi))
		got := h.EstimateRange(rg.lo, rg.hi)
		if math.Abs(got-want) > 0.15*want+20 {
			t.Errorf("range [%d,%d]: estimate %.0f, true %.0f", rg.lo, rg.hi, got, want)
		}
	}
}

func TestHistogramCapturesZipfSkew(t *testing.T) {
	tab := table.NewMaterializedZipf(newManager(), "t", 50000, 33, 9, 1.3)
	h := BuildHistogram(tab, 256)

	// Head of the distribution: far denser than uniform would predict.
	headTrue := float64(trueCount(tab, 0, 499))
	headEst := h.EstimateRange(0, 499)
	uniformEst := 500.0 / 50000 * 50000 // = 500 rows under uniformity
	if headTrue < 5*uniformEst {
		t.Fatalf("zipf data not skewed: %0.f rows in head vs uniform %0.f", headTrue, uniformEst)
	}
	if rel := headEst / headTrue; rel < 0.7 || rel > 1.4 {
		t.Errorf("head estimate %.0f vs true %.0f (ratio %.2f), want close", headEst, headTrue, rel)
	}

	// Tail: far sparser than uniform.
	tailTrue := float64(trueCount(tab, 25000, 49999))
	tailEst := h.EstimateRange(25000, 49999)
	if tailTrue > 0.02*50000 {
		t.Fatalf("zipf tail unexpectedly dense: %.0f rows", tailTrue)
	}
	if math.Abs(tailEst-tailTrue) > 0.5*tailTrue+200 {
		t.Errorf("tail estimate %.0f vs true %.0f", tailEst, tailTrue)
	}
}

func TestHistogramRangeEdgeCases(t *testing.T) {
	tab := table.NewMaterialized(newManager(), "t", 1000, 10, 3)
	h := BuildHistogram(tab, 16)
	if got := h.EstimateRange(5, 4); got != 0 {
		t.Errorf("inverted range estimate %f, want 0", got)
	}
	if got := h.EstimateRange(-100, -1); got != 0 {
		t.Errorf("below-domain estimate %f, want 0", got)
	}
	if got := h.EstimateRange(0, 1<<40); math.Abs(got-1000) > 1e-6 {
		t.Errorf("whole-domain estimate %f, want 1000", got)
	}
	if got := h.Selectivity(0, 1<<40); math.Abs(got-1) > 1e-9 {
		t.Errorf("whole-domain selectivity %f, want 1", got)
	}
}

func TestHistogramBucketCountClamped(t *testing.T) {
	tab := table.NewMaterialized(newManager(), "t", 10, 1, 3)
	h := BuildHistogram(tab, 1000)
	if h.Buckets() > 10 {
		t.Errorf("%d buckets for a 10-value domain", h.Buckets())
	}
}

// Property: bucket counts sum to the row count, and any sub-range estimate
// is between 0 and the total.
func TestPropertyHistogramConservation(t *testing.T) {
	tab := table.NewMaterialized(newManager(), "t", 5000, 33, 11)
	h := BuildHistogram(tab, 64)
	f := func(loRaw, hiRaw uint16) bool {
		lo, hi := int64(loRaw)%5000, int64(hiRaw)%5000
		if lo > hi {
			lo, hi = hi, lo
		}
		est := h.EstimateRange(lo, hi)
		return est >= 0 && est <= float64(h.Rows())+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if got := h.EstimateRange(0, 4999); math.Abs(got-5000) > 1e-6 {
		t.Errorf("full-range estimate %f, want 5000", got)
	}
}

func TestZipfExponentValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zipf exponent <= 1")
		}
	}()
	table.NewMaterializedZipf(newManager(), "t", 100, 10, 1, 1.0)
}
