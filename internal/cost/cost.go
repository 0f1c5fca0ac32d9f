// Package cost implements the paper's I/O cost models: the classic
// disk-transfer-time model (DTT, §4.1), which maps a band size to the
// amortized cost of one random page read, and the paper's contribution, the
// queue-depth-aware model (QDTT, §4.2), which additionally takes the device
// I/O queue depth. Both are piecewise-linear tables produced by calibration
// (see internal/calibrate) and evaluated with (bi)linear interpolation
// (§4.5). The package also provides the expected-page-fetch estimators
// (Yao's formula with a buffer-pool correction) that turn row counts into
// page I/O counts.
package cost

import (
	"fmt"
	"math"
	"sort"
)

// Model prices one page read. Band is the size, in pages, of the area the
// random I/Os are issued over (band 1 ≡ sequential); depth is the device
// I/O queue depth the operator will generate. The returned cost is the
// amortized microseconds per page.
type Model interface {
	PageCost(band int64, depth int) float64
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

// interpBand linearly interpolates cost over the band grid, clamping
// outside the calibrated range.
func interpBand(bands []int64, cost []float64, band int64) float64 {
	if band <= bands[0] {
		return cost[0]
	}
	n := len(bands)
	if band >= bands[n-1] {
		return cost[n-1]
	}
	i := sort.Search(n, func(j int) bool { return bands[j] >= band })
	lo, hi := bands[i-1], bands[i]
	frac := float64(band-lo) / float64(hi-lo)
	return cost[i-1] + frac*(cost[i]-cost[i-1])
}

// QDTT is the queue-depth-aware disk-transfer-time model: a grid of
// calibrated costs over (band, depth). Depths are calibrated exponentially
// (1, 2, 4, ..., per §4.5) and interpolated linearly in between — first
// along band, then along depth (bilinear interpolation).
type QDTT struct {
	bands  []int64
	depths []int
	cost   [][]float64 // [depthIdx][bandIdx], µs per page
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
	return q
}

// Bands returns the calibrated band grid.
func (q *QDTT) Bands() []int64 { return q.bands }

// Depths returns the calibrated queue-depth grid.
func (q *QDTT) Depths() []int { return q.depths }

// PageCost implements Model: bilinear interpolation, band first, then queue
// depth, clamped outside the grid.
func (q *QDTT) PageCost(band int64, depth int) float64 {
	if depth <= q.depths[0] {
		return interpBand(q.bands, q.cost[0], band)
	}
	n := len(q.depths)
	if depth >= q.depths[n-1] {
		return interpBand(q.bands, q.cost[n-1], band)
	}
	i := sort.Search(n, func(j int) bool { return q.depths[j] >= depth })
	lo, hi := q.depths[i-1], q.depths[i]
	cLo := interpBand(q.bands, q.cost[i-1], band)
	cHi := interpBand(q.bands, q.cost[i], band)
	frac := float64(depth-lo) / float64(hi-lo)
	return cLo + frac*(cHi-cLo)
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
