package stats

import "slices"

// BalancedCuts computes range-partition cut points that spread the given
// key multiset near-evenly across shards: cut i is the smallest key value
// such that at least (i+1)/shards of the keys fall below it. The returned
// slice has shards-1 ascending upper-exclusive bounds, directly usable
// with table.RangeShard — the "shard rebalance" counterpart to the naive
// equal-width split, which a skewed (e.g. Zipf) key distribution overloads
// badly.
//
// Cuts are computed on a sorted copy; the input is not modified.
func BalancedCuts(keys []int64, shards int) []int64 {
	sorted := slices.Clone(keys)
	slices.Sort(sorted)

	cuts := make([]int64, shards-1)
	n := int64(len(sorted))
	for i := range cuts {
		rank := n * int64(i+1) / int64(shards)
		if rank >= n {
			rank = n - 1
		}
		cut := sorted[rank]
		// Cuts must ascend strictly or the shards they separate collapse
		// to zero rows in RangeShard's half-open intervals; under heavy
		// skew many quantiles land on the same hot key, so push each cut
		// past its predecessor.
		if i > 0 && cut <= cuts[i-1] {
			cut = cuts[i-1] + 1
		}
		cuts[i] = cut
	}
	return cuts
}
