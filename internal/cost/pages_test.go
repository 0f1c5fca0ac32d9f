package cost

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// refYaoDistinctPages and refExpectedFetches are the estimators as they
// stood before PageEstimator folded their constants — every log-gamma
// recomputed per call, the pool-fill point bisected per call over [1, k] —
// kept verbatim as the reference PageEstimator must equal bit for bit.
func refYaoDistinctPages(k, pages int64, rowsPerPage int) float64 {
	if k <= 0 || pages <= 0 {
		return 0
	}
	m := float64(pages)
	n := int64(rowsPerPage)
	N := pages * n
	if k >= N-n+1 {
		return m // every page must be touched
	}
	// ln C(N−n, k) − ln C(N, k)
	logRatio := refLnChoose(N-n, k) - refLnChoose(N, k)
	return m * (1 - math.Exp(logRatio))
}

// refLnChoose returns ln C(n, k) for 0 <= k <= n.
func refLnChoose(n, k int64) float64 {
	lg := func(x int64) float64 {
		v, _ := math.Lgamma(float64(x) + 1)
		return v
	}
	return lg(n) - lg(k) - lg(n-k)
}

func refExpectedFetches(k, pages int64, rowsPerPage int, poolPages int64) float64 {
	if k <= 0 || pages <= 0 {
		return 0
	}
	distinct := refYaoDistinctPages(k, pages, rowsPerPage)
	if poolPages >= pages || distinct <= float64(poolPages) {
		return distinct
	}
	// kWarm: rows visited by the time the pool fills (Yao curve crosses the
	// pool size). Yao is monotone in k, so binary search.
	lo, hi := int64(1), k
	for lo < hi {
		mid := (lo + hi) / 2
		if refYaoDistinctPages(mid, pages, rowsPerPage) < float64(poolPages) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	kWarm := lo
	missRate := float64(pages-poolPages) / float64(pages)
	return float64(poolPages) + float64(k-kWarm)*missRate
}

// TestPageEstimatorEqualsReference is the bit-identity gate on the constant
// folding, and what establishes that the pool-fill point does not depend on
// k: the reference bisects [1, k] afresh for every k, the estimator once
// over the whole curve, and the two agree only if floating-point Yao is
// monotone around every crossing — including pools within a page of the
// table, where the curve is flattest and rounding noise is largest relative
// to its slope.
func TestPageEstimatorEqualsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	compared := 0
	check := func(pages int64, rpp int, pool int64) {
		e := NewPageEstimator(pages, rpp, pool)
		N := pages * int64(rpp)
		ks := []int64{-1, 0, 1, 2, 3, N / 2, N}
		for d := int64(-2); d <= 2; d++ {
			ks = append(ks, e.kWarm+d, 2*e.kWarm+d)
		}
		for k := N - int64(rpp) - 2; k <= N+1; k++ {
			ks = append(ks, k)
		}
		for i := 0; i < 24; i++ {
			// Log-uniform, so small k and the crossing both get drawn.
			ks = append(ks, int64(math.Exp(rng.Float64()*math.Log(float64(N)+1))))
		}
		for _, k := range ks {
			compared++
			wantD := refYaoDistinctPages(k, pages, rpp)
			wantR := refExpectedFetches(k, pages, rpp, pool)
			if got := e.Distinct(k); got != wantD {
				t.Fatalf("pages=%d rpp=%d pool=%d k=%d: Distinct = %v, reference %v", pages, rpp, pool, k, got, wantD)
			}
			if got := e.Expected(k); got != wantR {
				t.Fatalf("pages=%d rpp=%d pool=%d k=%d: Expected = %v, reference %v", pages, rpp, pool, k, got, wantR)
			}
		}
	}
	sizes := []int64{1, 2, 3, 7, 100, 1516, 6061, 12288, 65536}
	for round := 0; round < 20; round++ {
		sizes = append(sizes, 1+rng.Int63n(1<<uint(4+rng.Intn(13))))
	}
	for _, pages := range sizes {
		for _, rpp := range []int{1, 2, 33, 500} {
			pools := []int64{0, 1, pages + 5, pages, pages - 1, pages - 2, pages - 3}
			for i := 0; i < 4; i++ {
				pools = append(pools,
					pages/2+rng.Int63n(pages/2+1), // 50–100 % of the table
					rng.Int63n(pages/10+1))        // under 10 %
			}
			for _, pool := range pools {
				if pool >= 0 {
					check(pages, rpp, pool)
				}
			}
		}
	}
	t.Logf("compared %d points", compared)
	if compared < 300000 {
		t.Errorf("compared %d points, want at least 300000", compared)
	}
}

func TestPageEstimatorDoesNotAllocate(t *testing.T) {
	e := NewPageEstimator(12288, 33, 1024)
	var sink float64
	if allocs := testing.AllocsPerRun(100, func() {
		sink += e.Expected(40000) + e.Distinct(900)
	}); allocs != 0 {
		t.Errorf("Expected + Distinct allocate %.1f/op, want 0", allocs)
	}
}

// yaoDraw is TestPropertyYaoBounds' generator: the three raw draws become a
// table shape and a row count inside it. It returns the amount by which the
// estimate leaves [0, min(k, pages)] and the rounding unit that overshoot is
// measured in.
//
// Yao's formula differences log-gammas of magnitude lnΓ(N+1) and scales
// the result by the page count, so its absolute error grows as
// pages·lnΓ(N+1)·2⁻⁵² — one unit of that is 5e-10 pages at 100 pages × 33
// rows, 8e-3 at 65 536 × 500.
func yaoDraw(kRaw, pagesRaw, rppRaw uint16) (overshoot, unit float64) {
	k := int64(kRaw) + 1
	pages := int64(pagesRaw) + 1
	rpp := int(rppRaw%500) + 1
	if k > pages*int64(rpp) {
		k = pages * int64(rpp)
	}
	got := yao(k, pages, rpp)
	overshoot = math.Max(0, math.Max(-got, math.Max(got-float64(pages), got-float64(k))))
	return overshoot, float64(pages) * lgamma1(pages*int64(rpp)) * 0x1p-52
}

// Property: Yao never exceeds min(k, pages) and is never negative, up to
// the formula's own rounding: four units (see yaoDraw) over the 1e-9 that
// suffices on small tables. Measured over 6 M draws of this generator
// (twelve seeds × 500 K): one draw in 1 800 overshoots 1e-9, by at most
// 1.3e-2 pages and at most 2.19 units — so four leaves a factor of 1.8 and
// still pins a small-k result to a few hundredths of a page on the largest
// table the generator draws. Seeded: an unseeded run of the old fixed 1e-9
// bound failed about one time in ten.
func TestPropertyYaoBounds(t *testing.T) {
	f := func(kRaw, pagesRaw, rppRaw uint16) bool {
		overshoot, unit := yaoDraw(kRaw, pagesRaw, rppRaw)
		return overshoot <= 1e-9+4*unit
	}
	cfg := &quick.Config{Rand: rand.New(rand.NewSource(7)), MaxCount: 20000}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestYaoRoundingStaysUnderTwoUnits pins the measurement the bound above is
// derived from on one fixed stream (1.81 units today), so a change that
// worsens the formula's rounding fails here instead of hiding in the
// bound's slack.
func TestYaoRoundingStaysUnderTwoUnits(t *testing.T) {
	worst := 0.0
	f := func(kRaw, pagesRaw, rppRaw uint16) bool {
		overshoot, unit := yaoDraw(kRaw, pagesRaw, rppRaw)
		if overshoot > 1e-9 {
			worst = math.Max(worst, overshoot/unit)
		}
		return true
	}
	cfg := &quick.Config{Rand: rand.New(rand.NewSource(11)), MaxCount: 200000}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
	if worst == 0 || worst >= 2 {
		t.Errorf("worst overshoot over 200 000 draws is %.3f rounding units, want inside (0, 2)", worst)
	}
	t.Logf("worst overshoot: %.3f units", worst)
}
