// Package cost implements the paper's I/O cost models: the classic
// disk-transfer-time model (DTT, §4.1), which maps a band size to the
// amortized cost of one random page read, and the paper's contribution, the
// queue-depth-aware model (QDTT, §4.2), which additionally takes the device
// I/O queue depth. Both are tables produced by calibration (see
// internal/calibrate) and interpolated between grid points: linearly in
// queue depth, as §4.5 has it, and linearly in √band where §4.5 is linear in
// band, since a disk's seek grows about as the square root of the distance
// it spans (locate). The package also provides the expected-page-fetch
// estimators (Yao's formula with a buffer-pool correction) that turn row
// counts into page I/O counts.
package cost

import (
	"fmt"
	"math"
	"sort"
)

// Model prices one page read. Band is the size, in pages, of the area the
// random I/Os are issued over (band 1 ≡ sequential); depth is the device
// I/O queue depth the operator will generate. The returned cost is the
// amortized microseconds per page. Drain prices one drain of the queue of a
// fleet that keeps depth reads in flight (QDTT.Drain).
type Model interface {
	PageCost(band int64, depth int) float64
	Drain(band int64, depth int) float64
}

// DTT is the band-size-only model: cost curves calibrated at queue depth 1.
// It is SQL Anywhere's original model and the paper's baseline ("old
// optimizer").
type DTT struct {
	bands []int64
	cost  []float64 // µs per page, parallel to bands
}

// NewDTT builds a model from calibrated (band, µs) points. Bands must be
// positive and strictly ascending.
func NewDTT(bands []int64, cost []float64) *DTT {
	if len(bands) == 0 || len(bands) != len(cost) {
		panic(fmt.Sprintf("cost: %d bands, %d costs", len(bands), len(cost)))
	}
	for i := range bands {
		if bands[i] <= 0 || (i > 0 && bands[i] <= bands[i-1]) {
			panic(fmt.Sprintf("cost: bands not ascending at %d: %v", i, bands))
		}
		if cost[i] < 0 || math.IsNaN(cost[i]) {
			panic(fmt.Sprintf("cost: invalid cost %f at band %d", cost[i], bands[i]))
		}
	}
	return &DTT{bands: append([]int64(nil), bands...), cost: append([]float64(nil), cost...)}
}

// Bands returns the calibrated band grid.
func (d *DTT) Bands() []int64 { return d.bands }

// PageCost implements Model. DTT ignores the queue depth — that is exactly
// the deficiency the QDTT model repairs.
func (d *DTT) PageCost(band int64, depth int) float64 {
	return interpBand(d.bands, d.cost, band)
}

// Drain implements Model: a model blind to depth sees no drain.
func (d *DTT) Drain(band int64, depth int) float64 { return 0 }

// interpBand interpolates cost over the band grid, linearly in √band,
// clamping outside the calibrated range.
func interpBand(bands []int64, cost []float64, band int64) float64 {
	i, frac := locate(bands, band)
	return at(cost, i, frac)
}

// locate places band on the grid: the index of the grid point at or below
// it and how far it lies toward the next one in √band, 0 when it is clamped
// to an end. Every row of a model shares the grid, so one search serves them
// all.
//
// The paper's §4.5 interpolates linearly in band. A random read's cost on a
// disk is mostly its seek, and a seek grows about as the square root of the
// distance the arm travels, so between two calibrated bands the cost follows
// √band: a straight line in band prices the bands between 4 096 and 65 536
// pages 7–14 % low on the HDD. A flat curve, an SSD's, is flat either way.
// (DESIGN.md §6.)
func locate(bands []int64, band int64) (int, float64) {
	n := len(bands)
	if band <= bands[0] {
		return 0, 0
	}
	if band >= bands[n-1] {
		return n - 1, 0
	}
	i := sort.Search(n, func(j int) bool { return bands[j] >= band })
	lo, hi := math.Sqrt(float64(bands[i-1])), math.Sqrt(float64(bands[i]))
	return i - 1, (math.Sqrt(float64(band)) - lo) / (hi - lo)
}

// at reads a row of costs at a located band.
func at(cost []float64, i int, frac float64) float64 {
	if frac == 0 {
		return cost[i]
	}
	return cost[i] + frac*(cost[i+1]-cost[i])
}

// QDTT is the queue-depth-aware disk-transfer-time model: a grid of
// calibrated costs over (band, depth). Depths are calibrated exponentially
// (1, 2, 4, ..., per §4.5) and interpolated linearly in between — first
// along band (in √band), then along depth.
type QDTT struct {
	bands  []int64
	depths []int
	cost   [][]float64 // [depthIdx][bandIdx], µs per page

	// below[k-1][bandIdx] is Σ PageCost(band, j) over j = 1..k, for k up to
	// the deepest calibrated depth: the prefix rows Drain reads.
	below [][]float64
}

// NewQDTT builds a model from a calibrated grid. Bands and depths must be
// strictly ascending; cost rows are indexed by depth then band.
func NewQDTT(bands []int64, depths []int, cost [][]float64) *QDTT {
	if len(depths) == 0 || len(depths) != len(cost) {
		panic(fmt.Sprintf("cost: %d depths, %d cost rows", len(depths), len(cost)))
	}
	for i, d := range depths {
		if d <= 0 || (i > 0 && d <= depths[i-1]) {
			panic(fmt.Sprintf("cost: depths not ascending: %v", depths))
		}
	}
	q := &QDTT{
		bands:  append([]int64(nil), bands...),
		depths: append([]int(nil), depths...),
	}
	for i, row := range cost {
		// Validate every row through the DTT constructor's checks.
		NewDTT(bands, row)
		q.cost = append(q.cost, append([]float64(nil), cost[i]...))
	}
	q.below = make([][]float64, depths[len(depths)-1])
	for k := range q.below {
		q.below[k] = make([]float64, len(bands))
		for b, band := range bands {
			q.below[k][b] = q.PageCost(band, k+1)
			if k > 0 {
				q.below[k][b] += q.below[k-1][b]
			}
		}
	}
	return q
}

// Bands returns the calibrated band grid.
func (q *QDTT) Bands() []int64 { return q.bands }

// Depths returns the calibrated queue-depth grid.
func (q *QDTT) Depths() []int { return q.depths }

// PageCost implements Model: interpolation along band (in √band), then
// along queue depth, clamped outside the grid.
func (q *QDTT) PageCost(band int64, depth int) float64 {
	i, frac := locate(q.bands, band)
	return q.priceAt(i, frac, depth)
}

// priceAt is PageCost at a located band.
func (q *QDTT) priceAt(i int, bandFrac float64, depth int) float64 {
	if depth <= q.depths[0] {
		return at(q.cost[0], i, bandFrac)
	}
	n := len(q.depths)
	if depth >= q.depths[n-1] {
		return at(q.cost[n-1], i, bandFrac)
	}
	j := sort.Search(n, func(j int) bool { return q.depths[j] >= depth })
	lo, hi := q.depths[j-1], q.depths[j]
	cLo := at(q.cost[j-1], i, bandFrac)
	cHi := at(q.cost[j], i, bandFrac)
	frac := float64(depth-lo) / float64(hi-lo)
	return cLo + frac*(cHi-cLo)
}

// Drain is what one drain of a fleet's queue adds, in µs, to reads priced
// at depth: a fleet that keeps depth reads in flight from one shared cursor
// has its last depth − 1 reads served at depths depth − 1 down to 1, so it
// owes Σ_{k<depth} (PageCost(band, k) − PageCost(band, depth)). A fleet
// drains that way at its end and wherever all its workers wait on one read.
// The drain is paid on a device that serves one read at a time — one whose
// first doubling of depth buys less than MinGain (one arm, two requests);
// where a second read overlaps the first, as on an SSD's channels, the
// drain's reads overlap too and it is 0. Every PageCost at an integer depth
// is linear in the grid's costs, so the sum is one interpolation of a
// prefix row, whatever the depth.
func (q *QDTT) Drain(band int64, depth int) float64 {
	if depth <= 1 {
		return 0
	}
	i, frac := locate(q.bands, band)
	if c1 := q.priceAt(i, frac, 1); c1 <= 0 || (c1-q.priceAt(i, frac, 2))/c1 >= MinGain {
		return 0
	}
	// Past the grid every depth costs the deepest row's price, depth's too,
	// so the terms beyond the prefix rows are 0.
	k := min(depth-1, len(q.below))
	return at(q.below[k-1], i, frac) - float64(k)*q.priceAt(i, frac, depth)
}

// DepthOne returns the queue-depth-1 slice of the model — the DTT model a
// depth-oblivious optimizer would use. This is how the experiments hold
// everything equal between the "old" and "new" optimizers except queue-depth
// awareness.
func (q *QDTT) DepthOne() *DTT {
	return NewDTT(q.bands, q.cost[0])
}

// MinGain is the one "deeper pays" threshold: a queue-depth step that
// shortens a band's page cost by less than this fraction (5 %) buys nothing
// worth a credit. The broker's supply (MaxBeneficialDepth) reads it.
const MinGain = 0.05

// MaxBeneficialDepth reports the deepest calibrated depth whose step over
// the previous calibrated depth still improved the given band's cost by at
// least MinGain. The whole curve is read, not just its head: a disk whose
// first doubling barely helps (one arm, two requests) but whose deeper rows
// keep shortening seeks has its beneficial depth at the bottom of the grid,
// not at 1. Flat curves report the first depth. The resource broker sizes
// its credit supply with it, so depth no query could turn into throughput
// is never handed out.
func (q *QDTT) MaxBeneficialDepth(band int64) int {
	best := q.depths[0]
	for i := 1; i < len(q.depths); i++ {
		prev := interpBand(q.bands, q.cost[i-1], band)
		cur := interpBand(q.bands, q.cost[i], band)
		if prev > 0 && (prev-cur)/prev >= MinGain {
			best = q.depths[i]
		}
	}
	return best
}
