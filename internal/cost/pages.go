package cost

import "math"

// PageEstimator turns a row count into a page count for one table shape
// (pages × rowsPerPage) read through one buffer pool. Everything in Yao's
// formula and in the pool correction that does not depend on the row count
// k is computed once, in NewPageEstimator, so pricing a plan costs three
// log-gammas and one exponential however many candidates share the
// estimate. A PageEstimator is immutable once built and safe to share
// between goroutines.
type PageEstimator struct {
	pages, rowsPerPage, rows int64 // m, n and N = m·n
	pool                     int64

	lgRows, lgRest float64 // lnΓ(N+1) and lnΓ(N−n+1)

	// kWarm is the row count at which the pool fills: the first k with
	// Distinct(k) ≥ pool. missRate is the fault probability of every row
	// visited after that. Both are meaningful only when pool < pages.
	kWarm    int64
	missRate float64
}

// NewPageEstimator folds the constants for a table of `pages` pages holding
// rowsPerPage rows each, read through a pool of poolPages frames.
func NewPageEstimator(pages int64, rowsPerPage int, poolPages int64) PageEstimator {
	n := int64(rowsPerPage)
	e := PageEstimator{pages: pages, rowsPerPage: n, rows: pages * n, pool: poolPages}
	if pages <= 0 {
		return e
	}
	e.lgRows, e.lgRest = lgamma1(e.rows), lgamma1(e.rows-n)
	if poolPages >= pages {
		return e
	}
	// Yao's curve is monotone in k and reaches all m > pool pages at
	// k = N−n+1, so the first k at or above the pool size is a binary
	// search — and, being a property of the curve, it is the same for every
	// row count past it.
	lo, hi := int64(1), e.rows-n+1
	for lo < hi {
		mid := (lo + hi) / 2
		if e.Distinct(mid) < float64(poolPages) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	e.kWarm = lo
	e.missRate = float64(pages-poolPages) / float64(pages)
	return e
}

// lgamma1 returns lnΓ(x+1) = ln x!.
func lgamma1(x int64) float64 {
	v, _ := math.Lgamma(float64(x) + 1)
	return v
}

// Distinct returns the expected number of distinct pages touched when k
// rows are drawn uniformly without replacement (Yao's formula; the paper
// cites Yue & Wong's analysis of the same quantity).
//
//	E = m · (1 − C(N−n, k) / C(N, k))
//
// with m pages, n rows/page, N = m·n rows, evaluated in log-gamma space so
// it is stable for multi-million-row tables.
func (e *PageEstimator) Distinct(k int64) float64 {
	if k <= 0 || e.pages <= 0 {
		return 0
	}
	m := float64(e.pages)
	if k >= e.rows-e.rowsPerPage+1 {
		return m // every page must be touched
	}
	// ln C(N−n, k) − ln C(N, k), each as lnΓ(top+1) − lnΓ(k+1) − lnΓ(top−k+1).
	lgK := lgamma1(k)
	logRatio := (e.lgRest - lgK - lgamma1(e.rows-e.rowsPerPage-k)) -
		(e.lgRows - lgK - lgamma1(e.rows-k))
	return m * (1 - math.Exp(logRatio))
}

// Expected estimates the number of page *reads* an index scan performs when
// it visits k rows in index-key order.
//
// While the pool still has room, re-visits to an already-touched page are
// hits, so reads follow Yao's distinct-page curve. Once the distinct pages
// touched exceed the pool, evicted pages miss again on re-reference: for a
// uniformly scattered access pattern each subsequent row faults with
// probability ≈ (pages − poolPages)/pages. This two-phase approximation is
// in the spirit of the buffer-aware corrections commercial optimizers apply
// to Yao's formula, and reproduces the paper's observation that with a
// small pool an index scan can read *more* pages than the table holds.
func (e *PageEstimator) Expected(k int64) float64 {
	if k <= 0 || e.pages <= 0 {
		return 0
	}
	distinct := e.Distinct(k)
	if e.pool >= e.pages || distinct <= float64(e.pool) {
		return distinct
	}
	return float64(e.pool) + float64(k-e.kWarm)*e.missRate
}
