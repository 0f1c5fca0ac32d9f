package btree

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"pioqo/internal/device"
	"pioqo/internal/disk"
	"pioqo/internal/reference"
	"pioqo/internal/sim"
	"pioqo/internal/table"
)

func newManager() *disk.Manager {
	return disk.NewManager(device.NewSSD(sim.NewEnv(1), device.DefaultSSDConfig()))
}

func buildMat(rows int64, leafCap int) (*Index, *table.Materialized) {
	m := newManager()
	t := table.NewMaterialized(m, "t", rows, 33, 42)
	return NewMaterialized(m, t, leafCap, 0), t
}

func buildSyn(rows int64, leafCap int) (*Index, *table.Synthetic) {
	m := newManager()
	t := table.NewSynthetic(m, "t", rows, 33, 42)
	return NewSynthetic(m, t, leafCap, 0), t
}

func TestMaterializedEntriesSortedAndComplete(t *testing.T) {
	x, tb := buildMat(2000, 100)
	var prev Entry
	seen := make(map[int64]bool, 2000)
	var buf []Entry
	for leaf := int64(0); leaf < x.Leaves(); leaf++ {
		buf = x.LeafEntries(leaf, buf)
		for _, e := range buf {
			if e.Key < prev.Key {
				t.Fatalf("key order violated: %d after %d", e.Key, prev.Key)
			}
			if tb.RowAt(e.Row).C2 != e.Key {
				t.Fatalf("entry %+v does not match table row", e)
			}
			if seen[e.Row] {
				t.Fatalf("row %d indexed twice", e.Row)
			}
			seen[e.Row] = true
			prev = e
		}
	}
	if int64(len(seen)) != tb.Rows() {
		t.Fatalf("indexed %d rows, want %d", len(seen), tb.Rows())
	}
}

// equivalenceTables are the tables the counting build is held to the
// comparison sort on: uniform and Zipf 1.3 keys, one shard each of a hash
// and a range partition (keys over the parent's domain, larger than the
// shard's rows), a one-row table and a table whose every row has one key.
func equivalenceTables(m *disk.Manager) map[string]*table.Materialized {
	cols := table.DrawColumns(3000, 7)
	hash, _ := table.DrawColumnsZipf(3000, 7, 1.3).Partition(4, func(k int64) int { return table.HashShard(k, 4) })
	cuts := table.EqualWidthCuts(cols.Domain, 4)
	ranged, _ := cols.Partition(4, func(k int64) int { return table.RangeShard(k, cuts) })
	oneKey := make([]int64, 500)
	for i := range oneKey {
		oneKey[i] = 41
	}
	return map[string]*table.Materialized{
		"uniform":     table.NewMaterialized(m, "uniform", 3000, 33, 7),
		"zipf":        table.NewMaterializedZipf(m, "zipf", 3000, 33, 7, 1.3),
		"hash-shard":  table.NewMaterializedFrom(m, "hash", 33, hash[1].C1, hash[1].C2, hash[1].Domain),
		"range-shard": table.NewMaterializedFrom(m, "range", 33, ranged[2].C1, ranged[2].C2, ranged[2].Domain),
		"one-row":     table.NewMaterializedFrom(m, "one-row", 33, []int64{5}, []int64{3}, 10),
		"one-key":     table.NewMaterializedFrom(m, "one-key", 33, make([]int64, 500), oneKey, 100),
	}
}

// sortedByComparison is the reference build: every (key, row) pair, sorted
// by (Key, Row).
func sortedByComparison(t *table.Materialized) []Entry {
	ref := make([]Entry, t.Rows())
	for r := range ref {
		ref[r] = Entry{Key: t.RowAt(int64(r)).C2, Row: int64(r)}
	}
	slices.SortFunc(ref, func(a, b Entry) int {
		return cmp.Or(cmp.Compare(a.Key, b.Key), cmp.Compare(a.Row, b.Row))
	})
	return ref
}

func TestMaterializedBuildMatchesComparisonSort(t *testing.T) {
	m := newManager()
	for name, tb := range equivalenceTables(m) {
		if got, want := NewMaterialized(m, tb, 0, 0).sorted, sortedByComparison(tb); !slices.Equal(got, want) {
			t.Errorf("%s: counting build differs from the (Key, Row) sort", name)
		}
	}
}

// FuzzMaterializedBuild draws a key domain, from one key to far more keys
// than rows, and a key column inside it, spread over the domain or crowded
// onto its first hot keys, and holds the counting build to the comparison
// sort.
func FuzzMaterializedBuild(f *testing.F) {
	f.Add(uint32(2999), uint16(2999), int64(7), uint8(0))
	f.Fuzz(func(t *testing.T, domainRaw uint32, rowsRaw uint16, seed int64, hot uint8) {
		domain := int64(domainRaw%100000) + 1
		rows := int(rowsRaw%5000) + 1
		span := domain
		if hot > 0 {
			span = min(int64(hot), domain)
		}
		rng := rand.New(rand.NewSource(seed))
		c1, c2 := make([]int64, rows), make([]int64, rows)
		for i := range c2 {
			c1[i], c2[i] = rng.Int63(), rng.Int63n(span)
		}
		m := newManager()
		tb := table.NewMaterializedFrom(m, "t", 33, c1, c2, domain)
		if got, want := NewMaterialized(m, tb, 0, 0).sorted, sortedByComparison(tb); !slices.Equal(got, want) {
			t.Fatalf("domain %d, %d rows, hot %d: counting build differs from the (Key, Row) sort", domain, rows, hot)
		}
	})
}

func TestSyntheticEntriesAreDenseKeys(t *testing.T) {
	x, tb := buildSyn(1000, 128)
	var buf []Entry
	next := int64(0)
	for leaf := int64(0); leaf < x.Leaves(); leaf++ {
		buf = x.LeafEntries(leaf, buf)
		for _, e := range buf {
			if e.Key != next {
				t.Fatalf("entry key %d, want dense %d", e.Key, next)
			}
			if tb.RowAt(e.Row).C2 != e.Key || tb.RowForKey(e.Key) != e.Row {
				t.Fatalf("entry %+v does not match table row", e)
			}
			next++
		}
	}
	if next != 1000 {
		t.Fatalf("enumerated %d entries, want 1000", next)
	}
}

func TestSearchBoundsMaterialized(t *testing.T) {
	x, tb := buildMat(3000, 100)
	for _, key := range []int64{0, 1, 500, 1499, 2999} {
		wantGE := int64(0)
		wantGT := int64(0)
		for r := int64(0); r < tb.Rows(); r++ {
			c2 := tb.RowAt(r).C2
			if c2 < key {
				wantGE++
			}
			if c2 <= key {
				wantGT++
			}
		}
		if got := x.SearchGE(key); got != wantGE {
			t.Errorf("SearchGE(%d) = %d, want %d", key, got, wantGE)
		}
		if got := x.SearchGT(key); got != wantGT {
			t.Errorf("SearchGT(%d) = %d, want %d", key, got, wantGT)
		}
	}
}

func TestRangeCountMatchesBruteForce(t *testing.T) {
	x, tb := buildMat(2500, 100)
	cases := []struct{ lo, hi int64 }{{0, 0}, {0, 2499}, {100, 200}, {2400, 2499}, {500, 499}}
	for _, c := range cases {
		if got, want := x.RangeCount(c.lo, c.hi), reference.Aggregate(tb, c.lo, c.hi).Rows; got != want {
			t.Errorf("RangeCount(%d, %d) = %d, want %d", c.lo, c.hi, got, want)
		}
	}
}

func TestRangeCountSynthetic(t *testing.T) {
	x, _ := buildSyn(1000, 100)
	if got := x.RangeCount(0, 99); got != 100 {
		t.Errorf("RangeCount(0,99) = %d, want 100 (keys dense)", got)
	}
	if got := x.RangeCount(990, 2000); got != 10 {
		t.Errorf("RangeCount(990,2000) = %d, want 10 (clamped)", got)
	}
}

func TestLeafGeometry(t *testing.T) {
	x, _ := buildSyn(1000, 128)
	if got, want := x.Leaves(), int64(8); got != want { // ceil(1000/128)
		t.Fatalf("Leaves = %d, want %d", got, want)
	}
	leaf, slot := x.LeafOf(x.SearchGE(300))
	if leaf != 2 || slot != 44 { // 300 = 2*128 + 44
		t.Errorf("LeafOf(300) = (%d, %d), want (2, 44)", leaf, slot)
	}
	last := x.LeafEntries(7, nil)
	if len(last) != 1000-7*128 {
		t.Errorf("last leaf has %d entries, want %d", len(last), 1000-7*128)
	}
}

// TestEntriesAtIsTheLeafSlice: the entries a reader takes from inside a leaf
// are that slice of the leaf's entries, on both index kinds, up to a short
// last leaf's end.
func TestEntriesAtIsTheLeafSlice(t *testing.T) {
	mat, _ := buildMat(1000, 128)
	syn, _ := buildSyn(1000, 128)
	for _, x := range []*Index{mat, syn} {
		var buf []Entry
		for _, c := range []struct{ pos, n int64 }{{0, 128}, {5, 1}, {300, 40}, {383, 1}, {896, 104}, {999, 1}, {7, 0}} {
			leaf, slot := x.LeafOf(c.pos)
			want := x.LeafEntries(leaf, nil)[slot : slot+int(c.n)]
			buf = x.EntriesAt(c.pos, int(c.n), buf)
			if !slices.Equal(buf, want) {
				t.Errorf("%s EntriesAt(%d, %d) = %v, want %v", x.Name(), c.pos, c.n, buf, want)
			}
		}
	}
}

func TestHeightAndInternalPages(t *testing.T) {
	cases := []struct {
		rows       int64
		leafCap    int
		fanout     int
		wantHeight int
		wantInner  int64
	}{
		{100, 250, 400, 1, 0},            // single leaf
		{1000, 10, 4, 5, 25 + 7 + 2 + 1}, // 100 leaves -> 25 -> 7 -> 2 -> 1
		{100000, 250, 400, 2, 1},         // 400 leaves -> root
	}
	for _, c := range cases {
		m := newManager()
		tb := table.NewSynthetic(m, "t", c.rows, 33, 1)
		x := NewSynthetic(m, tb, c.leafCap, c.fanout)
		if x.Height() != c.wantHeight {
			t.Errorf("rows=%d: height = %d, want %d", c.rows, x.Height(), c.wantHeight)
		}
		if x.InternalPages() != c.wantInner {
			t.Errorf("rows=%d: internal pages = %d, want %d", c.rows, x.InternalPages(), c.wantInner)
		}
		if got := x.File().Pages(); got != c.wantInner+x.Leaves() {
			t.Errorf("rows=%d: file has %d pages, want inner+leaves = %d",
				c.rows, got, c.wantInner+x.Leaves())
		}
		if got := len(x.DescentPath()); got != c.wantHeight-1 {
			t.Errorf("rows=%d: descent path %d pages, want %d", c.rows, got, c.wantHeight-1)
		}
	}
}

func TestLeafPageComesAfterInternals(t *testing.T) {
	m := newManager()
	tb := table.NewSynthetic(m, "t", 1000, 33, 1)
	x := NewSynthetic(m, tb, 10, 4) // several internal levels
	if got := x.LeafPage(0); got != x.InternalPages() {
		t.Errorf("LeafPage(0) = %d, want %d", got, x.InternalPages())
	}
	if got := x.LeafPage(x.Leaves() - 1); got != x.File().Pages()-1 {
		t.Errorf("last leaf at page %d, want %d", got, x.File().Pages()-1)
	}
}

func TestLeafPageOutOfRangePanics(t *testing.T) {
	x, _ := buildSyn(100, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-range leaf")
		}
	}()
	x.LeafPage(x.Leaves())
}

// Property: for any range [lo, hi] on a synthetic index, walking the leaves
// between the search bounds enumerates exactly the rows whose key is in the
// range, in key order.
func TestPropertyRangeEnumeration(t *testing.T) {
	f := func(rowsRaw uint16, loRaw, hiRaw uint16) bool {
		rows := int64(rowsRaw%3000) + 10
		x, tb := buildSyn(rows, 64)
		lo, hi := int64(loRaw)%rows, int64(hiRaw)%rows
		if lo > hi {
			lo, hi = hi, lo
		}
		start, end := x.SearchGE(lo), x.SearchGT(hi)
		if end-start != hi-lo+1 {
			return false
		}
		var buf []Entry
		pos := start
		for pos < end {
			leaf, slot := x.LeafOf(pos)
			buf = x.LeafEntries(leaf, buf)
			for ; slot < len(buf) && pos < end; slot++ {
				e := buf[slot]
				if e.Key < lo || e.Key > hi || tb.RowAt(e.Row).C2 != e.Key {
					return false
				}
				pos++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
