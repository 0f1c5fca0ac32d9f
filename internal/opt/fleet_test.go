package opt

import (
	"math"
	"math/rand"
	"testing"

	"pioqo/internal/cost"
)

// TestFleetTailIsTheRacesMeanDepth plays the race fleetMeanDepth closes:
// depth workers with m reads each, one outstanding apiece, and a drive
// that serves a uniform pick of those still reading. Over the reads served,
// the mean number still reading must match the closed form. The tail is
// then priced only where a second outstanding read buys nothing.
func TestFleetTailIsTheRacesMeanDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const trials = 200
	for _, depth := range []int{2, 4, 8, 16, 32} {
		for _, m := range []int{2, 4, 16, 64} {
			var reading float64
			left := make([]int, depth)
			for range trials {
				active := make([]int, depth)
				for w := range active {
					active[w], left[w] = w, m
				}
				for len(active) > 0 {
					reading += float64(len(active))
					i := rng.Intn(len(active))
					if left[active[i]]--; left[active[i]] == 0 {
						active[i] = active[len(active)-1]
						active = active[:len(active)-1]
					}
				}
			}
			race := reading / float64(trials*depth*m)
			tol := 0.02
			if m == 2 {
				tol = 0.04
			}
			if got := fleetMeanDepth(depth, float64(m)); math.Abs(got-race) > tol*race {
				t.Errorf("depth %d, %d reads a worker: closed form %.3f, race %.3f", depth, m, got, race)
			}
		}
	}

	// A grid whose price halves from depth 1 to 2 overlaps its reads; one
	// whose price does not move there serves them one at a time.
	const band = 1 << 20
	bands, depths := []int64{1, band}, []int{1, 2, 4, 8}
	overlapping := cost.NewQDTT(bands, depths, [][]float64{{3, 160}, {3, 80}, {3, 40}, {3, 20}})
	serial := cost.NewQDTT(bands, depths, [][]float64{{37, 8000}, {37, 8100}, {37, 6500}, {37, 5200}})
	for _, tc := range []struct {
		name  string
		model cost.Model
		depth int
		want  float64
	}{
		{"overlapping, degree 8", overlapping, 8, 0},
		{"serial, degree 1", serial, 1, 0},
		// 1/depth runs 8/mean − 1 of the way from depth 8 to depth 4.
		{"serial, degree 8", serial, 8, (8/fleetMeanDepth(8, 8) - 1) * (6500 - 5200)},
	} {
		var cc costing
		got := cc.fleetTail(tc.model, band, tc.depth, tc.model.PageCost(band, tc.depth), float64(8*tc.depth))
		if math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("%s: tail %.6f µs a read, want %.6f", tc.name, got, tc.want)
		}
	}
}
