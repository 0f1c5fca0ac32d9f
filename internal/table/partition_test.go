package table

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"pioqo/internal/device"
	"pioqo/internal/disk"
	"pioqo/internal/sim"
)

// TestDrawColumnsMatchesConstructor: DrawColumns must replay the exact draw
// sequence NewMaterialized stores, so a partitioned build starts from the
// same rowset an unsharded build would hold.
func TestDrawColumnsMatchesConstructor(t *testing.T) {
	env := sim.NewEnv(1)
	m := disk.NewManager(device.NewSSD(env, device.DefaultSSDConfig()))
	for _, zipf := range []float64{0, 1.3} {
		var tab *Materialized
		var cols Columns
		if zipf > 0 {
			tab = NewMaterializedZipf(m, "z", 3000, 33, 7, zipf)
			cols = DrawColumnsZipf(3000, 7, zipf)
		} else {
			tab = NewMaterialized(m, "u", 3000, 33, 7)
			cols = DrawColumns(3000, 7)
		}
		for r := int64(0); r < 3000; r++ {
			row := tab.RowAt(r)
			if row.C1 != cols.C1[r] || row.C2 != cols.C2[r] {
				t.Fatalf("zipf=%v row %d: table (%d,%d), drawn (%d,%d)",
					zipf, r, row.C1, row.C2, cols.C1[r], cols.C2[r])
			}
		}
		if cols.Domain != tab.KeyDomain() {
			t.Errorf("zipf=%v: drawn domain %d, table domain %d", zipf, cols.Domain, tab.KeyDomain())
		}
	}
}

// TestPartitionPreservesMultiset: whatever the shard count and assignment,
// the partitions' union is the original rowset, rowIDs map each partition
// row back to its source row exactly, and within-shard order is stable.
func TestPartitionPreservesMultiset(t *testing.T) {
	cols := DrawColumnsZipf(5000, 7, 1.2)
	cuts := EqualWidthCuts(cols.Domain, 4)
	assigns := map[string]func(int64) int{
		"hash":  func(k int64) int { return HashShard(k, 4) },
		"range": func(k int64) int { return RangeShard(k, cuts) },
	}
	for name, assign := range assigns {
		parts, rowIDs := cols.Partition(4, assign)
		var total int
		for s, part := range parts {
			if len(part.C1) != len(part.C2) || len(part.C1) != len(rowIDs[s]) {
				t.Fatalf("%s shard %d: ragged partition", name, s)
			}
			total += len(part.C1)
			if part.Domain != cols.Domain {
				t.Errorf("%s shard %d: domain %d, want parent %d", name, s, part.Domain, cols.Domain)
			}
			for i, id := range rowIDs[s] {
				if part.C1[i] != cols.C1[id] || part.C2[i] != cols.C2[id] {
					t.Fatalf("%s shard %d row %d: (%d,%d) but source row %d is (%d,%d)",
						name, s, i, part.C1[i], part.C2[i], id, cols.C1[id], cols.C2[id])
				}
				if i > 0 && rowIDs[s][i-1] >= id {
					t.Fatalf("%s shard %d: rowIDs not ascending at %d", name, s, i)
				}
				if assign(part.C2[i]) != s {
					t.Fatalf("%s: key %d landed on shard %d, assign says %d",
						name, part.C2[i], s, assign(part.C2[i]))
				}
			}
		}
		if total != 5000 {
			t.Errorf("%s: partitions hold %d rows, want 5000", name, total)
		}
	}
}

// partitionByAppend is the reference Partition: each row appended to its
// shard's growing slices.
func partitionByAppend(c Columns, shards int, assign func(key int64) int) (parts []Columns, rowIDs [][]int64) {
	parts = make([]Columns, shards)
	rowIDs = make([][]int64, shards)
	for i := range parts {
		parts[i].Domain = c.Domain
	}
	for row, key := range c.C2 {
		s := assign(key)
		parts[s].C1 = append(parts[s].C1, c.C1[row])
		parts[s].C2 = append(parts[s].C2, key)
		rowIDs[s] = append(rowIDs[s], int64(row))
	}
	return parts, rowIDs
}

// TestPartitionMatchesAppendReference: on uniform and Zipf 1.3 rowsets, a
// one-row rowset and one whose every row has one key, hash and range
// partitions equal the reference's row for row, and each slice is made at
// its final size.
func TestPartitionMatchesAppendReference(t *testing.T) {
	oneKey := Columns{C1: make([]int64, 500), C2: make([]int64, 500), Domain: 100}
	for i := range oneKey.C2 {
		oneKey.C1[i], oneKey.C2[i] = int64(i), 41
	}
	rowsets := map[string]Columns{
		"uniform": DrawColumns(3000, 7),
		"zipf":    DrawColumnsZipf(3000, 7, 1.3),
		"one-row": {C1: []int64{5}, C2: []int64{3}, Domain: 10},
		"one-key": oneKey,
	}
	for name, cols := range rowsets {
		for _, shards := range []int{1, 3, 8} {
			cuts := EqualWidthCuts(cols.Domain, shards)
			for kind, assign := range map[string]func(int64) int{
				"hash":  func(k int64) int { return HashShard(k, shards) },
				"range": func(k int64) int { return RangeShard(k, cuts) },
			} {
				at := fmt.Sprintf("%s, %d %s shards", name, shards, kind)
				parts, rowIDs := cols.Partition(shards, assign)
				wantParts, wantIDs := partitionByAppend(cols, shards, assign)
				for s := range wantParts {
					got, want := parts[s], wantParts[s]
					if !slices.Equal(got.C1, want.C1) || !slices.Equal(got.C2, want.C2) ||
						!slices.Equal(rowIDs[s], wantIDs[s]) || got.Domain != want.Domain {
						t.Fatalf("%s: shard %d differs from the append reference", at, s)
					}
					if cap(got.C1) != len(got.C1) || cap(got.C2) != len(got.C2) || cap(rowIDs[s]) != len(rowIDs[s]) {
						t.Errorf("%s: shard %d slices not made at their final size", at, s)
					}
				}
			}
		}
	}
}

// TestNewMaterializedFromRejectsKeyOutsideDomain: the index and histogram
// count keys over [0, domain), so a key outside it panics at load, naming
// the table.
func TestNewMaterializedFromRejectsKeyOutsideDomain(t *testing.T) {
	for _, key := range []int64{-1, 10, 1 << 40} {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, `table "shard#2"`) || !strings.Contains(msg, "outside domain [0,10)") {
					t.Errorf("key %d: panic %q, want one naming the table and its domain", key, msg)
				}
			}()
			NewMaterializedFrom(newManager(), "shard#2", 33, []int64{1, 2}, []int64{9, key}, 10)
		}()
	}
}

// TestRangeShardBounds: cuts are upper-exclusive and exhaustive.
func TestRangeShardBounds(t *testing.T) {
	cuts := []int64{10, 20, 30}
	for _, tc := range []struct {
		key  int64
		want int
	}{{-5, 0}, {0, 0}, {9, 0}, {10, 1}, {19, 1}, {20, 2}, {29, 2}, {30, 3}, {1 << 40, 3}} {
		if got := RangeShard(tc.key, cuts); got != tc.want {
			t.Errorf("RangeShard(%d) = %d, want %d", tc.key, got, tc.want)
		}
	}
	if got := EqualWidthCuts(100, 4); len(got) != 3 || got[0] != 25 || got[1] != 50 || got[2] != 75 {
		t.Errorf("EqualWidthCuts(100, 4) = %v", got)
	}
}

// TestHashShardSpreadsSkewedKeys: the splitmix64 finalizer must spread even
// consecutive/clustered keys near-evenly.
func TestHashShardSpreadsSkewedKeys(t *testing.T) {
	counts := make([]int, 8)
	for k := int64(0); k < 8000; k++ {
		counts[HashShard(k, 8)]++
	}
	sort.Ints(counts)
	if counts[0] < 800 || counts[7] > 1200 {
		t.Errorf("hash spread over consecutive keys too uneven: %v", counts)
	}
}
