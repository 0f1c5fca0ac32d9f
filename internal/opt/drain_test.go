package opt

import (
	"math"
	"testing"

	"pioqo/internal/cost"
)

// TestDrainIsTheQueueTail: on a grid whose first doubling of depth buys
// less than cost.MinGain — a drive that serves one read at a time — a
// fleet that keeps depth reads in flight owes Σ_{k<depth} (P(k) − P(depth))
// as its queue drains, past the grid's deepest row too. On a grid whose
// second read overlaps the first, and at depth 1, it owes nothing.
func TestDrainIsTheQueueTail(t *testing.T) {
	bands, depths := []int64{1, 1 << 10, 1 << 20}, []int{1, 2, 4, 8, 16, 32}
	serial := cost.NewQDTT(bands, depths, [][]float64{
		{37, 4000, 8000}, {37, 3990, 7900}, {37, 3500, 6500}, {37, 3000, 5200}, {37, 2600, 4300}, {37, 2300, 3700},
	})
	overlapping := cost.NewQDTT(bands, depths, [][]float64{
		{3, 100, 160}, {3, 50, 80}, {3, 25, 40}, {3, 13, 20}, {3, 7, 10}, {3, 4, 5},
	})
	for _, band := range []int64{1 << 10, 5000, 1 << 20, 1 << 22} {
		for depth := 1; depth <= 40; depth++ {
			var want float64
			for k := 1; k < depth; k++ {
				want += serial.PageCost(band, k) - serial.PageCost(band, depth)
			}
			if got := serial.Drain(band, depth); math.Abs(got-want) > 1e-9*math.Max(1, want) {
				t.Errorf("serial grid, band %d, depth %d: drain %.6f µs, want %.6f", band, depth, got, want)
			}
			if got := overlapping.Drain(band, depth); got != 0 {
				t.Errorf("overlapping grid, band %d, depth %d: drain %.6f µs, want 0", band, depth, got)
			}
		}
		if got := serial.Drain(band, 1); got != 0 {
			t.Errorf("serial grid, band %d: drain %.6f µs at depth 1, want 0", band, got)
		}
	}
}

// countingModel counts the PageCost calls made through it.
type countingModel struct {
	*cost.QDTT
	calls int
}

func (m *countingModel) PageCost(band int64, depth int) float64 {
	m.calls++
	return m.QDTT.PageCost(band, depth)
}

// TestDrainCostsChooseNoPageCost: the drain is read from the model's
// prefix rows, so Choose asks PageCost no more often than it did when the
// fleet's tail was a fitted race.
func TestDrainCostsChooseNoPageCost(t *testing.T) {
	for _, tc := range []struct {
		dev    string
		sel    float64
		before int // PageCost calls under the fitted race
	}{
		{"hdd", 1e-4, 20}, {"hdd", 1e-3, 20}, {"hdd", 1e-2, 20},
		{"ssd", 1e-4, 15}, {"ssd", 1e-3, 15}, {"ssd", 1e-2, 15},
	} {
		f := newFixture(t, tc.dev, 200_000, 33)
		m := &countingModel{QDTT: f.qdtt}
		f.choose(t, m, tc.sel)
		if m.calls > tc.before {
			t.Errorf("%s, selectivity %g: Choose made %d PageCost calls, %d under the fitted race",
				tc.dev, tc.sel, m.calls, tc.before)
		}
	}
}
