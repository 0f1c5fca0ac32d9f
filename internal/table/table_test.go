package table

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"pioqo/internal/device"
	"pioqo/internal/disk"
	"pioqo/internal/sim"
)

func newManager() *disk.Manager {
	return disk.NewManager(device.NewSSD(sim.NewEnv(1), device.DefaultSSDConfig()))
}

func TestPageOf(t *testing.T) {
	cases := []struct {
		row  int64
		rpp  int
		want int64
	}{
		{0, 33, 0}, {32, 33, 0}, {33, 33, 1}, {99, 1, 99}, {499, 500, 0}, {500, 500, 1},
	}
	for _, c := range cases {
		if got := PageOf(c.row, c.rpp); got != c.want {
			t.Errorf("PageOf(%d, %d) = %d, want %d", c.row, c.rpp, got, c.want)
		}
	}
}

func TestMaterializedShape(t *testing.T) {
	m := newManager()
	tb := NewMaterialized(m, "t33", 1000, 33, 1)
	if tb.Pages() != 31 { // ceil(1000/33)
		t.Errorf("Pages = %d, want 31", tb.Pages())
	}
	if tb.File().Pages() != tb.Pages() {
		t.Errorf("file extent %d pages, table reports %d", tb.File().Pages(), tb.Pages())
	}
	if tb.KeyDomain() != 1000 {
		t.Errorf("KeyDomain = %d, want 1000", tb.KeyDomain())
	}
}

func TestMaterializedValuesInDomain(t *testing.T) {
	m := newManager()
	tb := NewMaterialized(m, "t", 500, 33, 7)
	for r := int64(0); r < tb.Rows(); r++ {
		row := tb.RowAt(r)
		if row.C1 < 0 || row.C1 >= 500 || row.C2 < 0 || row.C2 >= 500 {
			t.Fatalf("row %d = %+v outside domain [0,500)", r, row)
		}
	}
}

func TestMaterializedDeterministicBySeed(t *testing.T) {
	a := NewMaterialized(newManager(), "t", 200, 10, 42)
	b := NewMaterialized(newManager(), "t", 200, 10, 42)
	for r := int64(0); r < 200; r++ {
		if a.RowAt(r) != b.RowAt(r) {
			t.Fatalf("row %d differs across same-seed builds", r)
		}
	}
}

func TestSyntheticKeysAreAPermutation(t *testing.T) {
	tb := NewSynthetic(newManager(), "t", 1000, 33, 3)
	seen := make(map[int64]bool, 1000)
	for r := int64(0); r < 1000; r++ {
		k := tb.RowAt(r).C2
		if k < 0 || k >= 1000 {
			t.Fatalf("key %d outside domain", k)
		}
		if seen[k] {
			t.Fatalf("key %d occurs twice", k)
		}
		seen[k] = true
	}
}

func TestSyntheticInverseRoundTrip(t *testing.T) {
	tb := NewSynthetic(newManager(), "t", 997, 7, 11) // prime cardinality
	for r := int64(0); r < tb.Rows(); r++ {
		if got := tb.RowForKey(tb.RowAt(r).C2); got != r {
			t.Fatalf("RowForKey(key(%d)) = %d", r, got)
		}
	}
}

func TestSyntheticKeyRangeScattersAcrossPages(t *testing.T) {
	// The rows matching a small key range should spread over many pages,
	// like a uniform random column, not cluster in a few.
	tb := NewSynthetic(newManager(), "t", 100000, 100, 5)
	pages := make(map[int64]bool)
	for k := int64(0); k < 500; k++ {
		pages[PageOf(tb.RowForKey(k), 100)] = true
	}
	if len(pages) < 300 {
		t.Errorf("500 consecutive keys hit only %d distinct pages, want scatter >= 300", len(pages))
	}
}

func TestSyntheticOutOfDomainKeyPanics(t *testing.T) {
	tb := NewSynthetic(newManager(), "t", 100, 10, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-domain key")
		}
	}()
	tb.RowForKey(100)
}

func TestZeroRowsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero-row table")
		}
	}()
	NewSynthetic(newManager(), "t", 0, 10, 1)
}

func TestModInverse(t *testing.T) {
	cases := []struct{ a, n int64 }{{3, 10}, {7, 26}, {617, 1000}, {999999937, 1 << 40}}
	for _, c := range cases {
		inv := modInverse(c.a, c.n)
		if mulMod(c.a, inv, c.n) != 1 {
			t.Errorf("modInverse(%d, %d) = %d, product != 1", c.a, c.n, inv)
		}
	}
}

func TestMulModMatchesBigIntuition(t *testing.T) {
	// Values small enough to check directly.
	for a := int64(0); a < 50; a++ {
		for b := int64(0); b < 50; b++ {
			if got, want := mulMod(a, b, 37), (a*b)%37; got != want {
				t.Fatalf("mulMod(%d,%d,37) = %d, want %d", a, b, got, want)
			}
		}
	}
}

// Property: for any table size, the affine map is a bijection — inverting
// any key yields a row that maps back to that key.
func TestPropertySyntheticBijection(t *testing.T) {
	f := func(rowsRaw uint16, keyRaw uint16, seed int64) bool {
		rows := int64(rowsRaw%5000) + 2
		tb := NewSynthetic(newManager(), "t", rows, 10, seed)
		key := int64(keyRaw) % rows
		r := tb.RowForKey(key)
		return r >= 0 && r < rows && tb.RowAt(r).C2 == key
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: pages × rows-per-page covers all rows with less than one spare
// page of slack.
func TestPropertyPageCount(t *testing.T) {
	f := func(rowsRaw uint16, rppRaw uint8) bool {
		rows := int64(rowsRaw) + 1
		rpp := int(rppRaw%200) + 1
		tb := NewSynthetic(newManager(), "t", rows, rpp, 1)
		p := tb.Pages()
		return p*int64(rpp) >= rows && (p-1)*int64(rpp) < rows
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Tiny tables: below four rows there is no odd multiplier in (1, rows), and
// the multiplier search used to spin forever. Every size must still give a
// bijection whose batch accessors agree with RowAt.
func TestSyntheticTinyTables(t *testing.T) {
	for rows := int64(1); rows <= 8; rows++ {
		tb := NewSynthetic(newManager(), "t", rows, 3, rows)
		seen := make(map[int64]bool, rows)
		for r := int64(0); r < rows; r++ {
			key := tb.RowAt(r).C2
			if key < 0 || key >= rows || seen[key] {
				t.Fatalf("rows=%d: row %d has key %d (out of domain or repeated)", rows, r, key)
			}
			seen[key] = true
			if got := tb.RowForKey(key); got != r {
				t.Fatalf("rows=%d: RowForKey(C2(%d)) = %d", rows, r, got)
			}
		}
		all := tb.RowsAt(0, rows, nil)
		matches := tb.MatchesAt(0, rows, 0, rows-1, nil)
		if int64(len(all)) != rows || int64(len(matches)) != rows {
			t.Fatalf("rows=%d: RowsAt gave %d rows, MatchesAt %d", rows, len(all), len(matches))
		}
		for r := int64(0); r < rows; r++ {
			want := tb.RowAt(r)
			if all[r] != want || matches[r] != (Match{ID: r, Row: want}) {
				t.Fatalf("rows=%d row %d: RowAt %+v, RowsAt %+v, MatchesAt %+v",
					rows, r, want, all[r], matches[r])
			}
		}
	}
}

// The multiplier search must keep choosing what it chose before the tiny-table
// fix: goldens depend on the permutation of every table of four rows or more.
func TestSyntheticMultiplierUnchanged(t *testing.T) {
	for _, c := range []struct{ rows, a int64 }{
		{4, 3}, {5, 3}, {6, 5}, {10, 7}, {1000, 619}, {1 << 20, 648055},
	} {
		if got := NewSynthetic(newManager(), "t", c.rows, 10, 1).a; got != c.a {
			t.Errorf("rows=%d: multiplier %d, want %d", c.rows, got, c.a)
		}
	}
}

// matchesByHand is the reference MatchesAt is tested against: RowsAt, then
// the key filter applied row by row.
func matchesByHand(tb Table, lo, hi, keyLo, keyHi int64) []Match {
	var out []Match
	if lo >= hi {
		return out
	}
	for i, row := range tb.RowsAt(lo, hi, nil) {
		if row.C2 >= keyLo && row.C2 <= keyHi {
			out = append(out, Match{ID: lo + int64(i), Row: row})
		}
	}
	return out
}

// Property: on every backing, MatchesAt is RowsAt filtered by hand — same
// rows, same ids, same order — and it reuses the buffer it is given.
func TestPropertyMatchesAtEqualsFilteredRowsAt(t *testing.T) {
	const rows, rpp = 2003, 33 // a last partial page of 23 rows
	zipf := DrawColumnsZipf(rows, 5, 1.3)
	parts, _ := zipf.Partition(3, func(key int64) int { return HashShard(key, 3) })
	tables := map[string]Table{
		"synthetic": NewSynthetic(newManager(), "s", rows, rpp, 3),
		"uniform":   NewMaterialized(newManager(), "u", rows, rpp, 4),
		"zipf":      NewMaterializedZipf(newManager(), "z", rows, rpp, 5, 1.3),
		"partition": NewMaterializedFrom(newManager(), "p", rpp, parts[1].C1, parts[1].C2, parts[1].Domain),
	}
	for name, tb := range tables {
		n, domain := tb.Rows(), tb.KeyDomain()
		buf := make([]Match, 0, rpp)
		check := func(lo, hi, keyLo, keyHi int64) bool {
			want := matchesByHand(tb, lo, hi, keyLo, keyHi)
			got := tb.MatchesAt(lo, hi, keyLo, keyHi, buf)
			if len(got) != len(want) {
				t.Errorf("%s [%d,%d) keys [%d,%d]: %d matches, want %d",
					name, lo, hi, keyLo, keyHi, len(got), len(want))
				return false
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s [%d,%d) keys [%d,%d]: match %d = %+v, want %+v",
						name, lo, hi, keyLo, keyHi, i, got[i], want[i])
					return false
				}
			}
			if hi-lo <= rpp && len(got) > 0 && &got[0] != &buf[:1][0] {
				t.Errorf("%s [%d,%d): result does not reuse buf's backing array", name, lo, hi)
				return false
			}
			return true
		}

		lastPage := (tb.Pages() - 1) * rpp
		fixed := [][4]int64{
			{0, 0, 0, domain - 1},                       // empty row range
			{5, 5 + rpp, 10, 9},                         // inverted key range
			{0, n, 0, domain - 1},                       // whole table, whole domain
			{0, n, math.MinInt64, math.MaxInt64},        // every int64 key
			{lastPage, n, 0, domain - 1},                // last partial page
			{lastPage, n, domain / 2, domain/2 + 50},    // … filtered
			{7, 8, 0, domain - 1},                       // single row
			{0, rpp, tb.RowAt(3).C2, tb.RowAt(3).C2},    // single key
			{0, rpp, math.MinInt64, -1},                 // below the domain
			{0, rpp, domain, math.MaxInt64},             // above the domain
			{0, rpp, math.MinInt64 + 5, tb.RowAt(0).C2}, // width overflows int64
		}
		for _, c := range fixed {
			check(c[0], c[1], c[2], c[3])
		}
		f := func(loRaw, lenRaw, keyRaw, widthRaw uint16) bool {
			lo := int64(loRaw) % n
			hi := min(lo+int64(lenRaw)%(2*rpp), n)
			keyLo := int64(keyRaw)%(domain+20) - 10
			keyHi := keyLo + int64(widthRaw)%(domain/4) - 3
			return check(lo, hi, keyLo, keyHi)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func benchmarkMatchesAt(b *testing.B, tb Table) {
	const batch = 500
	for _, sel := range []float64{0.001, 0.5} {
		b.Run(fmt.Sprintf("sel=%g", sel), func(b *testing.B) {
			keyHi := int64(sel*float64(tb.KeyDomain())) - 1
			buf := make([]Match, 0, batch)
			lo := int64(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = tb.MatchesAt(lo, lo+batch, 0, keyHi, buf)
				lo = (lo + batch) % (tb.Rows() - batch)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/batch, "ns/row")
		})
	}
}

// BenchmarkMatchesAtSynthetic and BenchmarkMatchesAtMaterialized time the
// scan kernel on 500-row pages at a selective and an unselective predicate.
func BenchmarkMatchesAtSynthetic(b *testing.B) {
	benchmarkMatchesAt(b, NewSynthetic(newManager(), "s", 1<<20, 500, 7))
}

func BenchmarkMatchesAtMaterialized(b *testing.B) {
	benchmarkMatchesAt(b, NewMaterialized(newManager(), "m", 1<<20, 500, 7))
}
