package stats

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	ps := []float64{0, .5, .95, .99, 1}
	// want[n] holds the 1-based rank expected at each p.
	want := map[int][]int{
		1:   {1, 1, 1, 1, 1},
		2:   {1, 1, 2, 2, 2},
		3:   {1, 2, 3, 3, 3},
		100: {1, 50, 95, 99, 100},
	}
	for n, ranks := range want {
		sorted := make([]int, n)
		for i := range sorted {
			sorted[i] = i + 1
		}
		for i, p := range ps {
			if got := Percentile(sorted, p); got != ranks[i] {
				t.Errorf("n=%d p=%v: rank %d, want %d", n, p, got, ranks[i])
			}
		}
	}
	if got := Percentile([]float64(nil), .5); got != 0 {
		t.Errorf("empty sample: %v, want 0", got)
	}
}
