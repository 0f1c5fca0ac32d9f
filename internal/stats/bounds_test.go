package stats

import (
	"slices"
	"sort"
	"testing"

	"pioqo/internal/table"
)

// TestBalancedCutsUniform: on uniform keys the quantile cuts land near the
// equal-width ones and split the multiset evenly.
func TestBalancedCutsUniform(t *testing.T) {
	keys := make([]int64, 8000)
	for i := range keys {
		keys[i] = int64(i % 1000) // uniform over [0,1000)
	}
	cuts := BalancedCuts(keys, 4)
	if len(cuts) != 3 {
		t.Fatalf("got %d cuts for 4 shards", len(cuts))
	}
	for i, want := range []int64{250, 500, 750} {
		if cuts[i] < want-10 || cuts[i] > want+10 {
			t.Errorf("cut %d = %d, want ~%d", i, cuts[i], want)
		}
	}
	counts := make([]int, 4)
	for _, k := range keys {
		counts[table.RangeShard(k, cuts)]++
	}
	for s, c := range counts {
		if c < 1900 || c > 2100 {
			t.Errorf("shard %d holds %d of 8000 uniform keys: %v", s, c, counts)
		}
	}
}

// TestBalancedCutsSkewed: on a skewed multiset the quantile cuts beat the
// equal-width split — the equal-width layout piles nearly everything onto
// shard 0, the balanced one spreads the mass up to the unsplittable hot
// key.
func TestBalancedCutsSkewed(t *testing.T) {
	cols := table.DrawColumnsZipf(20000, 7, 1.3)
	heaviest := func(cuts []int64) int {
		counts := make([]int, 4)
		for _, k := range cols.C2 {
			counts[table.RangeShard(k, cuts)]++
		}
		max := 0
		for _, c := range counts {
			if c > max {
				max = c
			}
		}
		return max
	}
	naive := heaviest(table.EqualWidthCuts(cols.Domain, 4))
	balanced := heaviest(BalancedCuts(cols.C2, 4))
	if naive < 19000 {
		t.Errorf("equal-width split on zipf 1.3: hot shard %d of 20000, expected nearly all", naive)
	}
	if balanced*2 > naive {
		t.Errorf("balanced cuts hot shard %d did not halve naive %d", balanced, naive)
	}
}

// TestBalancedCutsStrictlyAscend: duplicate-heavy input must still yield
// strictly ascending cuts, or RangeShard collapses shards to zero width.
func TestBalancedCutsStrictlyAscend(t *testing.T) {
	keys := make([]int64, 1000) // all zeros: every quantile is the same key
	cuts := BalancedCuts(keys, 8)
	for i := 1; i < len(cuts); i++ {
		if cuts[i] <= cuts[i-1] {
			t.Fatalf("cuts not strictly ascending: %v", cuts)
		}
	}
}

// cutsBySort is the reference BalancedCuts: the quantiles of a
// sort.Slice-sorted copy, each pushed past its predecessor.
func cutsBySort(keys []int64, shards int) []int64 {
	sorted := make([]int64, len(keys))
	copy(sorted, keys)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	cuts := make([]int64, shards-1)
	n := int64(len(sorted))
	for i := range cuts {
		cut := sorted[min(n*int64(i+1)/int64(shards), n-1)]
		if i > 0 && cut <= cuts[i-1] {
			cut = cuts[i-1] + 1
		}
		cuts[i] = cut
	}
	return cuts
}

// TestBalancedCutsMatchSortReference: the cuts equal the reference's on
// every equivalence table, and the one-row and one-key tables take the
// strictly-ascending push past their hot key.
func TestBalancedCutsMatchSortReference(t *testing.T) {
	for name, tb := range equivalenceTables() {
		keys := keysOf(tb)
		for _, shards := range []int{2, 4, 8, 16} {
			got, want := BalancedCuts(keys, shards), cutsBySort(keys, shards)
			if !slices.Equal(got, want) {
				t.Errorf("%s, %d shards: cuts %v, want %v", name, shards, got, want)
			}
			if (name == "one-row" || name == "one-key") && got[len(got)-1] != got[0]+int64(shards-2) {
				t.Errorf("%s, %d shards: cuts %v are not pushed past the hot key one by one", name, shards, got)
			}
		}
	}
}
