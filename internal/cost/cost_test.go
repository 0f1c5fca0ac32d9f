package cost

import (
	"math"
	"testing"
	"testing/quick"
)

func sampleQDTT() *QDTT {
	bands := []int64{1, 100, 10000}
	depths := []int{1, 2, 4, 8}
	cost := [][]float64{
		{10, 100, 200}, // qd 1
		{10, 60, 110},  // qd 2
		{10, 35, 60},   // qd 4
		{10, 25, 40},   // qd 8
	}
	return NewQDTT(bands, depths, cost)
}

func TestDTTExactPoints(t *testing.T) {
	d := NewDTT([]int64{1, 100, 10000}, []float64{10, 100, 200})
	for i, band := range d.Bands() {
		want := []float64{10, 100, 200}[i]
		if got := d.PageCost(band, 1); got != want {
			t.Errorf("PageCost(%d) = %f, want %f", band, got, want)
		}
	}
}

func TestDTTInterpolatesBetweenBands(t *testing.T) {
	// Linear in √band: between bands 100 and 900 (√ 10 and 30), band 400
	// (√ 20) is the midpoint and band 225 (√ 15) the quarter.
	d := NewDTT([]int64{100, 900}, []float64{10, 30})
	if got := d.PageCost(400, 1); got != 20 {
		t.Errorf("midpoint cost = %f, want 20", got)
	}
	if got := d.PageCost(225, 1); got != 15 {
		t.Errorf("quarter cost = %f, want 15", got)
	}
	// Band 500, halfway in band, lies past halfway in √band.
	if got := d.PageCost(500, 1); got <= 20 || got >= 25 {
		t.Errorf("cost at band 500 = %f, want in (20, 25): 10 + 20·(√500 − 10)/20", got)
	}
}

func TestDTTClampsOutsideRange(t *testing.T) {
	d := NewDTT([]int64{100, 200}, []float64{10, 30})
	if got := d.PageCost(1, 1); got != 10 {
		t.Errorf("below range = %f, want clamp to 10", got)
	}
	if got := d.PageCost(99999, 1); got != 30 {
		t.Errorf("above range = %f, want clamp to 30", got)
	}
}

func TestDTTIgnoresDepth(t *testing.T) {
	d := NewDTT([]int64{1, 1000}, []float64{10, 100})
	if d.PageCost(500, 1) != d.PageCost(500, 32) {
		t.Error("DTT cost varies with depth; it must not")
	}
}

func TestQDTTExactGridPoints(t *testing.T) {
	q := sampleQDTT()
	if got := q.PageCost(100, 2); got != 60 {
		t.Errorf("grid point (100, 2) = %f, want 60", got)
	}
	if got := q.PageCost(10000, 8); got != 40 {
		t.Errorf("grid point (10000, 8) = %f, want 40", got)
	}
}

func TestQDTTBilinearInterpolation(t *testing.T) {
	q := sampleQDTT()
	// depth 3 halfway between 2 and 4 at band 100: (60+35)/2.
	if got, want := q.PageCost(100, 3), 47.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("PageCost(100, 3) = %f, want %f", got, want)
	}
	// band 3025 (√ 55) midway in √band between 100 and 10000 (√ 10 and
	// 100) at depth 2: (60+110)/2.
	if got, want := q.PageCost(3025, 2), 85.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("PageCost(3025, 2) = %f, want %f", got, want)
	}
	// Both axes at once: depth 3 at band 3025, halfway between the depth-2
	// and depth-4 prices there, (85 + 47.5)/2.
	if got, want := q.PageCost(3025, 3), 66.25; math.Abs(got-want) > 1e-9 {
		t.Errorf("PageCost(3025, 3) = %f, want %f", got, want)
	}
}

func TestQDTTClampsDepth(t *testing.T) {
	q := sampleQDTT()
	if got := q.PageCost(100, 32); got != 25 {
		t.Errorf("depth above grid = %f, want clamp to 25", got)
	}
	if got := q.PageCost(100, 0); got != 100 {
		t.Errorf("depth below grid = %f, want clamp to 100", got)
	}
}

func TestDepthOneMatchesDTTRow(t *testing.T) {
	q := sampleQDTT()
	d := q.DepthOne()
	for _, band := range []int64{1, 50, 100, 5000, 10000} {
		if d.PageCost(band, 1) != q.PageCost(band, 1) {
			t.Errorf("DepthOne differs from QDTT at band %d", band)
		}
	}
}

func TestMaxBeneficialDepth(t *testing.T) {
	q := sampleQDTT()
	// At band 100 every doubling helps by >5%: best = 8.
	if got := q.MaxBeneficialDepth(100); got != 8 {
		t.Errorf("MaxBeneficialDepth(100) = %d, want 8", got)
	}
	// At band 1 cost is flat: no benefit beyond depth 1.
	if got := q.MaxBeneficialDepth(1); got != 1 {
		t.Errorf("MaxBeneficialDepth(1) = %d, want 1", got)
	}

	// The fitted HDD's whole-device band: the first doubling gains 0.4 %
	// (one arm, two requests), every later one 11–16 %. The supply is the
	// bottom of the curve, not the step that happened to be flat.
	hdd := NewQDTT([]int64{1, 1 << 20}, []int{1, 2, 4, 8, 16, 32}, [][]float64{
		{100, 13382},
		{100, 13328},
		{100, 11600},
		{100, 10150},
		{100, 8800},
		{100, 7527},
	})
	if got := hdd.MaxBeneficialDepth(1 << 20); got != 32 {
		t.Errorf("fitted HDD MaxBeneficialDepth = %d, want 32", got)
	}
	if got := hdd.MaxBeneficialDepth(1); got != 1 {
		t.Errorf("fitted HDD band-1 MaxBeneficialDepth = %d, want 1", got)
	}
	// Gains that stop partway end the supply where they stop.
	knee := NewQDTT([]int64{1, 1 << 20}, []int{1, 2, 4, 8, 16, 32}, [][]float64{
		{100, 1000}, {100, 600}, {100, 400}, {100, 395}, {100, 394}, {100, 394},
	})
	if got := knee.MaxBeneficialDepth(1 << 20); got != 4 {
		t.Errorf("knee MaxBeneficialDepth = %d, want 4", got)
	}
}

func TestNewDTTRejectsBadInput(t *testing.T) {
	cases := []struct {
		bands []int64
		cost  []float64
	}{
		{[]int64{}, []float64{}},
		{[]int64{1, 2}, []float64{1}},
		{[]int64{2, 1}, []float64{1, 1}},
		{[]int64{0, 1}, []float64{1, 1}},
		{[]int64{1, 2}, []float64{1, -5}},
		{[]int64{1, 2}, []float64{1, math.NaN()}},
	}
	for i, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			NewDTT(c.bands, c.cost)
		}()
	}
}

func TestNewQDTTRejectsBadDepths(t *testing.T) {
	for _, depths := range [][]int{{}, {0}, {2, 1}, {1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("depths %v: no panic", depths)
				}
			}()
			rows := make([][]float64, len(depths))
			for i := range rows {
				rows[i] = []float64{1}
			}
			NewQDTT([]int64{1}, depths, rows)
		}()
	}
}

// yao and fetches evaluate a throwaway estimator at one point.
func yao(k, pages int64, rowsPerPage int) float64 {
	e := NewPageEstimator(pages, rowsPerPage, pages)
	return e.Distinct(k)
}

func fetches(k, pages int64, rowsPerPage int, poolPages int64) float64 {
	e := NewPageEstimator(pages, rowsPerPage, poolPages)
	return e.Expected(k)
}

func TestYaoSmallCases(t *testing.T) {
	// 1 row per page: k rows touch exactly k pages.
	if got := yao(5, 100, 1); math.Abs(got-5) > 1e-9 {
		t.Errorf("Yao(k=5, 1 rpp) = %f, want 5", got)
	}
	// Selecting every row touches every page.
	if got := yao(3300, 100, 33); math.Abs(got-100) > 1e-6 {
		t.Errorf("Yao(all rows) = %f, want 100", got)
	}
	if got := yao(0, 100, 33); got != 0 {
		t.Errorf("Yao(k=0) = %f, want 0", got)
	}
}

func TestYaoApproachesAllPagesQuicklyForWidePages(t *testing.T) {
	// §2: with many rows per page, "even at small selectivity, the number
	// of pages that must be fetched quickly approaches 100% of the table".
	pages := int64(1000)
	kOnePercent := int64(5000) // 1% of 500k rows
	got := yao(kOnePercent, pages, 500)
	if got < 0.98*float64(pages) {
		t.Errorf("Yao(1%% of rows, 500 rpp) = %f pages, want ~all %d", got, pages)
	}
}

func TestYaoMonotoneInK(t *testing.T) {
	prev := 0.0
	for k := int64(1); k < 10000; k *= 2 {
		got := yao(k, 500, 33)
		if got < prev {
			t.Fatalf("Yao not monotone at k=%d: %f < %f", k, got, prev)
		}
		prev = got
	}
}

func TestExpectedFetchesNoEvictionEqualsYao(t *testing.T) {
	got := fetches(1000, 500, 33, 500)
	want := yao(1000, 500, 33)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("fetches with ample pool = %f, want Yao %f", got, want)
	}
}

func TestExpectedFetchesExceedsTableUnderSmallPool(t *testing.T) {
	// §2: with a small pool and high selectivity, "the total number of
	// pages fetched using IS can be potentially even more than the number
	// of pages fetched using FTS".
	pages := int64(2000)
	k := int64(60000) // ~90% of rows at 33 rpp
	got := fetches(k, pages, 33, 100)
	if got <= float64(pages) {
		t.Errorf("fetches = %f, want > table size %d", got, pages)
	}
}

func TestExpectedFetchesMonotoneInPool(t *testing.T) {
	prev := math.Inf(1)
	for _, pool := range []int64{10, 100, 500, 1000, 2000} {
		got := fetches(30000, 2000, 33, pool)
		if got > prev {
			t.Fatalf("fetches increased with pool %d: %f > %f", pool, got, prev)
		}
		prev = got
	}
}

// Property: QDTT interpolation always lies within the envelope of the grid
// costs, for any query point.
func TestPropertyInterpolationWithinEnvelope(t *testing.T) {
	q := sampleQDTT()
	lo, hi := 10.0, 200.0 // min and max of the sample grid
	f := func(bandRaw uint32, depthRaw uint8) bool {
		band := int64(bandRaw%20000) + 1
		depth := int(depthRaw%40) + 1
		c := q.PageCost(band, depth)
		return c >= lo-1e-9 && c <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
