// Package table implements heap tables laid out as fixed-occupancy slotted
// pages on a simulated disk file.
//
// The paper's experiments use tables T1, T33, and T500 that differ only in
// rows per page (1, 33, 500), with two integer columns that matter: C1 (the
// aggregated column) and C2 (the predicate column, uniformly distributed,
// carrying a non-clustered index). Padding columns that only set the row
// size are represented by the rows-per-page parameter rather than by bytes.
//
// Two backings implement the same interface:
//
//   - Materialized stores real column values, for correctness tests and
//     examples that verify query answers against brute force.
//   - Synthetic derives C2 from an invertible affine permutation of the row
//     number and C1 from a hash, so that multi-million-row experiment sweeps
//     need O(1) memory while still supporting exact index-order enumeration
//     (the inverse permutation maps any key back to its row).
package table

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"pioqo/internal/disk"
)

// Row is the projection of a heap row onto the two columns queries touch.
type Row struct {
	C1 int64 // aggregated column (no index)
	C2 int64 // predicate column (non-clustered index)
}

// Match is a row that passed a key-range filter, with its row number.
type Match struct {
	ID int64
	Row
}

// Table is a heap table: rows packed RowsPerPage to a page in row-number
// order, stored in a contiguous disk file.
type Table interface {
	Name() string

	// Rows returns the table cardinality.
	Rows() int64

	// RowsPerPage returns the fixed page occupancy (the paper's RPP knob).
	RowsPerPage() int

	// Pages returns the heap size in pages: ceil(Rows/RowsPerPage).
	Pages() int64

	// File returns the disk extent holding the heap pages.
	File() *disk.File

	// RowAt returns row values by row number in [0, Rows). The caller is
	// responsible for having paid the I/O to read PageOf(row) first.
	RowAt(row int64) Row

	// RowsAt returns rows [lo, hi) reusing buf's backing array. Both
	// backings enumerate incrementally, which is markedly cheaper than
	// hi−lo RowAt calls. Scans evaluate pages with MatchesAt; RowsAt is the
	// unfiltered reference MatchesAt is tested against. The same I/O
	// contract as RowAt applies.
	RowsAt(lo, hi int64, buf []Row) []Row

	// MatchesAt returns the rows of [lo, hi) whose C2 lies in
	// [keyLo, keyHi], in row order, reusing buf's backing array — the
	// accessor scans evaluate a page with. It is RowsAt filtered by key, but
	// predicate-first: both backings walk C2 alone and produce C1 only for
	// the rows that match, so a selective scan pays one comparison per row
	// it discards. The same I/O contract as RowAt applies.
	MatchesAt(lo, hi, keyLo, keyHi int64, buf []Match) []Match

	// KeyDomain returns D such that C2 values lie in [0, D).
	KeyDomain() int64
}

// PageOf returns the heap page holding row number row in a table with the
// given page occupancy.
func PageOf(row int64, rowsPerPage int) int64 { return row / int64(rowsPerPage) }

// pagesFor returns ceil(rows / rpp).
func pagesFor(rows int64, rpp int) int64 {
	return (rows + int64(rpp) - 1) / int64(rpp)
}

func validateShape(name string, rows int64, rpp int) {
	if rows <= 0 || rpp <= 0 {
		panic(fmt.Sprintf("table %q: %d rows, %d rows/page", name, rows, rpp))
	}
}

// Materialized is a heap table with stored column values. C1 and C2 are
// independent uniform draws from [0, rows), matching the paper's data
// generation ("inserted values in each column follow a uniform random
// distribution").
type Materialized struct {
	name string
	rows int64
	rpp  int
	file *disk.File
	c1   []int64
	c2   []int64

	// domain, when positive, overrides the C2 key domain — a partition of
	// a larger table keys over the parent's domain, not its own row count.
	domain int64
}

// NewMaterialized builds a table of rows rows with rpp rows per page,
// allocating its heap file on m and drawing values with the given seed.
func NewMaterialized(m *disk.Manager, name string, rows int64, rpp int, seed int64) *Materialized {
	return newMaterialized(m, name, rows, rpp, seed, nil)
}

// NewMaterializedZipf builds a table whose C2 values follow a Zipf
// distribution with exponent s > 1 over [0, rows) — heavily skewed toward
// small keys. The paper's data is uniform; the skewed backing exercises
// histogram-based cardinality estimation, where a uniform assumption would
// misplace the scan break-even badly.
func NewMaterializedZipf(m *disk.Manager, name string, rows int64, rpp int, seed int64, s float64) *Materialized {
	if s <= 1 {
		panic(fmt.Sprintf("table %q: zipf exponent %f must exceed 1", name, s))
	}
	return newMaterialized(m, name, rows, rpp, seed, func(rng *rand.Rand) func() int64 {
		z := rand.NewZipf(rng, s, 1, uint64(rows-1))
		return func() int64 { return int64(z.Uint64()) }
	})
}

func newMaterialized(m *disk.Manager, name string, rows int64, rpp int, seed int64,
	c2Source func(*rand.Rand) func() int64) *Materialized {
	validateShape(name, rows, rpp)
	cols := drawColumns(rows, seed, c2Source)
	return &Materialized{
		name: name,
		rows: rows,
		rpp:  rpp,
		file: m.MustAllocate(name, pagesFor(rows, rpp)),
		c1:   cols.C1,
		c2:   cols.C2,
	}
}

// Name implements Table.
func (t *Materialized) Name() string { return t.name }

// Rows implements Table.
func (t *Materialized) Rows() int64 { return t.rows }

// RowsPerPage implements Table.
func (t *Materialized) RowsPerPage() int { return t.rpp }

// Pages implements Table.
func (t *Materialized) Pages() int64 { return pagesFor(t.rows, t.rpp) }

// File implements Table.
func (t *Materialized) File() *disk.File { return t.file }

// KeyDomain implements Table.
func (t *Materialized) KeyDomain() int64 {
	if t.domain > 0 {
		return t.domain
	}
	return t.rows
}

// RowAt implements Table.
func (t *Materialized) RowAt(row int64) Row {
	return Row{C1: t.c1[row], C2: t.c2[row]}
}

// RowsAt implements Table by zipping the column slices directly.
func (t *Materialized) RowsAt(lo, hi int64, buf []Row) []Row {
	buf = buf[:0]
	c1, c2 := t.c1[lo:hi], t.c2[lo:hi]
	for i := range c1 {
		buf = append(buf, Row{C1: c1[i], C2: c2[i]})
	}
	return buf
}

// MatchesAt implements Table by filtering the C2 column slice and loading
// C1 for the matches only.
func (t *Materialized) MatchesAt(lo, hi, keyLo, keyHi int64, buf []Match) []Match {
	buf = buf[:0]
	if lo >= hi || keyLo > keyHi {
		return buf
	}
	width := keyWidth(keyLo, keyHi)
	for i, key := range t.c2[lo:hi] {
		if uint64(key)-uint64(keyLo) <= width {
			row := lo + int64(i)
			buf = append(buf, Match{ID: row, Row: Row{C1: t.c1[row], C2: key}})
		}
	}
	return buf
}

// keyWidth prepares the single-comparison range test the MatchesAt kernels
// use: for keyLo <= keyHi, keyLo <= k <= keyHi exactly when
// uint64(k)-uint64(keyLo) <= keyWidth(keyLo, keyHi). Unsigned subtraction
// wraps a key below keyLo to a value above any width, over all of int64.
func keyWidth(keyLo, keyHi int64) uint64 { return uint64(keyHi) - uint64(keyLo) }

// SetC1 updates a row's C1 value in place. Only the materialized backing
// is updatable; the caller is responsible for marking the holding page
// dirty in the buffer pool.
func (t *Materialized) SetC1(row, v int64) { t.c1[row] = v }

// Synthetic is a heap table whose values are computed, not stored. C2 is an
// affine permutation of the row number over [0, rows) — every key occurs
// exactly once, keys scatter (pseudo)uniformly over pages, and the inverse
// permutation recovers the row for any key. C1 is a hash of the row number
// reduced to [0, rows).
type Synthetic struct {
	name string
	rows int64
	rpp  int
	file *disk.File

	a, aInv, b int64 // C2(row) = (a·row + b) mod rows

	// Row lo+i has key C2(lo) + i·a (mod rows): the keys of any run of rows
	// are one fixed set of displacements, translated by the run's first key.
	// disp holds the displacements i·a mod rows of a page's worth of rows,
	// i < min(rpp, rows), in increasing order, so the rows of a run whose
	// keys fall in a range are one cyclic interval of it (matchesLookup).
	disp []displacement
}

// displacement is how far row lo+i's key lies past row lo's, modulo rows.
type displacement struct {
	value int64
	i     int32
}

// NewSynthetic builds a computed-value table of rows rows with rpp rows per
// page, allocating its heap file on m. The permutation is derived from seed.
func NewSynthetic(m *disk.Manager, name string, rows int64, rpp int, seed int64) *Synthetic {
	validateShape(name, rows, rpp)
	rng := rand.New(rand.NewSource(seed))
	t := &Synthetic{
		name: name,
		rows: rows,
		rpp:  rpp,
		file: m.MustAllocate(name, pagesFor(rows, rpp)),
	}
	// Pick a multiplier coprime with rows so the map is a bijection. Large
	// odd candidates near phi*rows scatter ranges of keys well across pages.
	// Below four rows no odd multiplier in (1, rows) exists and the search
	// would never end; the identity multiplier is a bijection there.
	t.a = 1
	if rows >= 4 {
		for a := int64(float64(rows)*0.6180339887) | 1; ; a += 2 {
			if a >= rows {
				a %= rows
				a |= 1
			}
			if a > 1 && gcd(a, rows) == 1 {
				t.a = a
				break
			}
		}
	}
	t.aInv = modInverse(t.a, rows)
	t.b = rng.Int63n(rows)

	t.disp = make([]displacement, min(int64(rpp), rows))
	for i := 1; i < len(t.disp); i++ {
		value := t.disp[i-1].value + t.a
		if value >= rows {
			value -= rows
		}
		t.disp[i] = displacement{value, int32(i)}
	}
	// The values are distinct: a is coprime with rows.
	slices.SortFunc(t.disp, func(x, y displacement) int { return cmp.Compare(x.value, y.value) })
	return t
}

// Name implements Table.
func (t *Synthetic) Name() string { return t.name }

// Rows implements Table.
func (t *Synthetic) Rows() int64 { return t.rows }

// RowsPerPage implements Table.
func (t *Synthetic) RowsPerPage() int { return t.rpp }

// Pages implements Table.
func (t *Synthetic) Pages() int64 { return pagesFor(t.rows, t.rpp) }

// File implements Table.
func (t *Synthetic) File() *disk.File { return t.file }

// KeyDomain implements Table.
func (t *Synthetic) KeyDomain() int64 { return t.rows }

// RowAt implements Table.
func (t *Synthetic) RowAt(row int64) Row {
	return Row{C1: int64(mix64(uint64(row)) % uint64(t.rows)), C2: t.key(row)}
}

// RowsAt implements Table. Consecutive rows' keys differ by the fixed
// stride a (mod rows), so the whole range is enumerated with one modular
// multiplication and an add-and-wrap per row — no per-row division for C2.
func (t *Synthetic) RowsAt(lo, hi int64, buf []Row) []Row {
	buf = buf[:0]
	key := t.key(lo)
	n := uint64(t.rows)
	for row := lo; row < hi; row++ {
		buf = append(buf, Row{C1: int64(mix64(uint64(row)) % n), C2: key})
		key += t.a
		if key >= t.rows {
			key -= t.rows
		}
	}
	return buf
}

// The two ways Synthetic.MatchesAt finds a run's matches, and where one
// takes over from the other. The lookup costs one key, one binary search, a
// few steps per match and a sort of the matches, whatever the run's length;
// the walk costs a step per row. The constants are measured, the walk
// against the lookup at run lengths 4 to 4096 and ranges to rows/8 wide: a
// run under lookupMinRun rows is walked as fast as it is searched (8 rows:
// level; 12 and up: the lookup ahead), and once more than one key in
// 2^lookupWidthShift is in the range the matches are many enough that
// putting them back in row order costs what walking the rows would (a
// 500-row page: ahead 2–4× at rows/32, behind at rows/16).
// BenchmarkMatchesAtSynthetic then holds MatchesAt against the walk alone.
const (
	lookupMinRun     = 16
	lookupWidthShift = 5
)

// MatchesAt implements Table. A run of at most a page under a narrow key
// range reads its matches off the displacement table; any other run walks
// its rows. Both produce C1 only for rows inside the range.
func (t *Synthetic) MatchesAt(lo, hi, keyLo, keyHi int64, buf []Match) []Match {
	buf = buf[:0]
	if lo >= hi || keyLo > keyHi {
		return buf
	}
	if m := hi - lo; m >= lookupMinRun && m <= int64(len(t.disp)) {
		first, last := max(keyLo, 0), min(keyHi, t.rows-1)
		if last-first < t.rows>>lookupWidthShift { // also when the range misses the domain
			return t.matchesLookup(lo, hi, first, last, buf)
		}
	}
	return t.matchesWalk(lo, hi, keyLo, keyHi, buf)
}

// matchesWalk visits every row of [lo, hi) with the same add-and-wrap stride
// over C2 as RowsAt.
func (t *Synthetic) matchesWalk(lo, hi, keyLo, keyHi int64, buf []Match) []Match {
	width := keyWidth(keyLo, keyHi)
	key, a, n := t.key(lo), t.a, t.rows
	for row := lo; row < hi; row++ {
		if uint64(key)-uint64(keyLo) <= width {
			buf = append(buf, Match{ID: row, Row: Row{C1: int64(mix64(uint64(row)) % uint64(n)), C2: key}})
		}
		key += a
		if key >= n {
			key -= n
		}
	}
	return buf
}

// matchesLookup finds the rows of [lo, hi), a run no longer than the
// displacement table, whose key lies in [keyLo, keyHi], a range inside the
// key domain. Row lo+i matches when C2(lo) + disp(i) lands in the range
// modulo rows, that is when disp(i) lies in the cyclic interval that starts
// at keyLo − C2(lo) and is as wide as the range: the rows are found by one
// binary search in disp and a walk over the interval (in two pieces if it
// wraps past rows), then sorted back into row order.
func (t *Synthetic) matchesLookup(lo, hi, keyLo, keyHi int64, buf []Match) []Match {
	if keyLo > keyHi {
		return buf
	}
	n, m := t.rows, int32(hi-lo)
	start := keyLo - t.key(lo) // the displacement that lands on keyLo
	if start < 0 {
		start += n
	}
	end := start + (keyHi - keyLo) // the one that lands on keyHi; past rows if the interval wraps
	base := keyLo - start          // a match's key is base + its displacement; base moves up by rows for the wrapped piece

	// The first displacement ≥ start. (slices.BinarySearchFunc calls its
	// comparison through a func value: a third of a selective page's time.)
	j, above := 0, len(t.disp)
	for j < above {
		if mid := int(uint(j+above) >> 1); t.disp[mid].value < start {
			j = mid + 1
		} else {
			above = mid
		}
	}
	for piece := 0; ; piece++ {
		for ; j < len(t.disp) && t.disp[j].value <= end; j++ {
			if d := t.disp[j]; d.i < m { // else a row past the end of a short run
				buf = append(buf, Match{ID: lo + int64(d.i), Row: Row{C2: base + d.value}})
			}
		}
		if end < n || piece == 1 {
			break
		}
		j, end, base = 0, end-n, base+n
	}

	sortByID(buf)
	for k := range buf {
		buf[k].C1 = int64(mix64(uint64(buf[k].ID)) % uint64(n))
	}
	return buf
}

// sortByID puts matches in row order. A selective page has a handful, which
// an insertion sort written out here orders in a third less time than
// slices.SortFunc's, whose comparison is a call through a func value; the
// library takes the long lists a very large page can produce, where an
// insertion sort's quadratic cost would pass the row walk's.
func sortByID(ms []Match) {
	if len(ms) > 16 {
		slices.SortFunc(ms, func(x, y Match) int { return cmp.Compare(x.ID, y.ID) })
		return
	}
	for i := 1; i < len(ms); i++ {
		m, k := ms[i], i
		for ; k > 0 && ms[k-1].ID > m.ID; k-- {
			ms[k] = ms[k-1]
		}
		ms[k] = m
	}
}

// key returns C2 for a row in [0, rows): (a·row + b) mod rows. a and row are
// below rows, so under 2³¹ rows the product cannot overflow and one division
// reduces it; b is below rows too, and a subtraction wraps the sum.
func (t *Synthetic) key(row int64) int64 {
	var key int64
	if t.rows <= 1<<31 {
		key = t.a * row % t.rows
	} else {
		key = mulMod(t.a, row, t.rows)
	}
	key += t.b
	if key >= t.rows {
		key -= t.rows
	}
	return key
}

// RowStride returns the increment linking consecutive keys' rows:
// RowForKey(k+1) = (RowForKey(k) + RowStride()) mod Rows(). The synthetic
// B+-tree uses it to enumerate a leaf's entries incrementally instead of
// inverting the permutation per entry.
func (t *Synthetic) RowStride() int64 { return t.aInv }

// RowForKey returns the unique row whose C2 equals key. It is the inverse
// of the permutation and what lets the synthetic B+-tree enumerate entries
// in key order without storing them.
func (t *Synthetic) RowForKey(key int64) int64 {
	if key < 0 || key >= t.rows {
		panic(fmt.Sprintf("table %q: key %d outside domain [0,%d)", t.name, key, t.rows))
	}
	d := key - t.b
	if d < 0 {
		d += t.rows
	}
	return mulMod(t.aInv, d, t.rows)
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// modInverse returns a^-1 mod n via the extended Euclidean algorithm.
// It panics if gcd(a, n) != 1.
func modInverse(a, n int64) int64 {
	t, newT := int64(0), int64(1)
	r, newR := n, a
	for newR != 0 {
		q := r / newR
		t, newT = newT, t-q*newT
		r, newR = newR, r-q*newR
	}
	if r != 1 {
		panic(fmt.Sprintf("table: %d has no inverse mod %d", a, n))
	}
	if t < 0 {
		t += n
	}
	return t
}

// mulMod returns (a*b) mod n without overflow. Operands below 2³¹ (every
// realistic table cardinality) take the single-multiply fast path; larger
// ones fall back to shift-and-add. All operands must be non-negative with
// n > 0.
func mulMod(a, b, n int64) int64 {
	a %= n
	if a < 1<<31 && b < 1<<31 {
		return (a * b) % n
	}
	var result int64
	for b > 0 {
		if b&1 == 1 {
			result = (result + a) % n
		}
		a = (a << 1) % n
		b >>= 1
	}
	return result
}

// mix64 is the splitmix64 finalizer, a fast high-quality bijective hash.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
