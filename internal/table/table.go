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
//   - Synthetic computes both columns from the row number — C2 an affine
//     permutation, C1 a hash — and lays the pages out in a keyed pseudo-random
//     order, so that multi-million-row experiment sweeps need O(1) memory,
//     the rows of neighbouring keys lie as irregularly far apart as rows
//     drawn at random do, and index-order enumeration is still exact (both
//     maps invert, so any key leads back to its row).
package table

import (
	"cmp"
	"fmt"
	"math/bits"
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

// Synthetic is a heap table whose values are computed, not stored, in two
// steps. A logical row l has C2 = (a·l + b) mod rows, an affine permutation
// of [0, rows) — every key occurs exactly once and the inverse recovers l for
// any key — and C1 a hash of l reduced to [0, rows). Where a logical row
// lives is a second, keyed permutation π over the table's full pages:
// physical page p holds the rows of logical page π(p) in their slot order. A
// partial last page, and the only page of a table with fewer than two full
// ones, stay where they are. Row numbers in the Table interface are physical;
// logical rows do not leave this file. π is computed per use (placement), so
// the table holds nothing per page.
type Synthetic struct {
	name string
	rows int64
	rpp  int
	file *disk.File

	a, aInv, b int64 // C2 of logical row l = (a·l + b) mod rows

	place  placement
	placed int64 // rows on full pages: the ones π moves

	// The page logicalRun translated last, and its image. Every rider of a
	// shared scan evaluates the page the producer has just pushed, so on a
	// busy table most translations repeat the one before (serving_mix: four in
	// five). It makes a table what the System that owns it already is: for
	// one host goroutine at a time.
	lastPage, lastImage int64

	// Logical row lo+i has key C2(lo) + i·a (mod rows): the keys of any run of
	// logical rows are one fixed set of displacements, translated by the
	// run's first key. disp holds the displacements i·a mod rows of a page's
	// worth of rows, i < min(rpp, rows), in increasing order, so the rows of
	// a run whose keys fall in a range are one cyclic interval of it
	// (matchesLookup).
	disp []displacement

	// bucket indexes disp by value: bucket[b] is the position of the first
	// displacement at or above b<<shift, with shift chosen so that there are
	// one to two buckets per displacement. Multiples of a multiplier near
	// φ·rows are evenly spread, so the displacement a lookup wants is at
	// most a step or two past its bucket's first.
	bucket []int32
	shift  uint
}

// displacement is how far row lo+i's key lies past row lo's, modulo rows.
type displacement struct {
	value int64
	i     int32
}

// NewSynthetic builds a computed-value table of rows rows with rpp rows per
// page, allocating its heap file on m. The key offset and the page placement
// are derived from seed.
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
	t.place = newPlacement(rows/int64(rpp), rng)
	t.placed = int64(t.place.pages) * int64(rpp)
	t.lastPage = -1

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
	if w, l := bits.Len64(uint64(rows-1)), bits.Len(uint(len(t.disp))); w > l {
		t.shift = uint(w - l)
	}
	t.bucket = make([]int32, (rows-1)>>t.shift+1)
	j := 0
	for b := range t.bucket {
		for j < len(t.disp) && t.disp[j].value < int64(b)<<t.shift {
			j++
		}
		t.bucket[b] = int32(j)
	}
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

// logicalRun translates the head of the physical run [lo, hi): it returns the
// logical row stored at lo and how many rows from lo on — to the end of lo's
// page, or of the run — are consecutive logical rows too. One π per page,
// none for the page translated last.
func (t *Synthetic) logicalRun(lo, hi int64) (first, n int64) {
	if lo >= t.placed {
		return lo, hi - lo
	}
	rpp := int64(t.rpp)
	page := lo / rpp
	if page != t.lastPage {
		t.lastPage, t.lastImage = page, t.place.forward(page)
	}
	return lo + (t.lastImage-page)*rpp, min(hi, (page+1)*rpp) - lo
}

// RowAt implements Table.
func (t *Synthetic) RowAt(row int64) Row {
	l, _ := t.logicalRun(row, row+1)
	return Row{C1: int64(mix64(uint64(l)) % uint64(t.rows)), C2: t.key(l)}
}

// RowsAt implements Table. Within a page consecutive rows' keys differ by the
// fixed stride a (mod rows), so a page's rows are enumerated with one modular
// multiplication and an add-and-wrap per row — no per-row division for C2.
func (t *Synthetic) RowsAt(lo, hi int64, buf []Row) []Row {
	buf = buf[:0]
	n := uint64(t.rows)
	for lo < hi {
		l, run := t.logicalRun(lo, hi)
		key := t.key(l)
		for end := l + run; l < end; l++ {
			buf = append(buf, Row{C1: int64(mix64(uint64(l)) % n), C2: key})
			key += t.a
			if key >= t.rows {
				key -= t.rows
			}
		}
		lo += run
	}
	return buf
}

// The two ways Synthetic.MatchesAt finds a run's matches, and where one
// takes over from the other. The lookup costs one key, one index load, a
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

// MatchesAt implements Table. The run is translated a page at a time and each
// piece evaluated in logical rows, where a piece of at least lookupMinRun
// rows under a narrow key range reads its matches off the displacement table
// and any other walks its rows; the matches' ids are then shifted back to
// the physical rows they were asked as. Both kernels produce C1 only for
// rows inside the range.
func (t *Synthetic) MatchesAt(lo, hi, keyLo, keyHi int64, buf []Match) []Match {
	buf = buf[:0]
	if keyLo > keyHi {
		return buf
	}
	first, last := max(keyLo, 0), min(keyHi, t.rows-1)
	narrow := last-first < t.rows>>lookupWidthShift // also when the range misses the domain
	for lo < hi {
		l, run := t.logicalRun(lo, hi)
		from := len(buf)
		if narrow && run >= lookupMinRun && run <= int64(len(t.disp)) {
			buf = t.matchesLookup(l, l+run, first, last, buf)
		} else {
			buf = t.matchesWalk(l, l+run, keyLo, keyHi, buf)
		}
		if shift := lo - l; shift != 0 {
			for k := from; k < len(buf); k++ {
				buf[k].ID += shift
			}
		}
		lo += run
	}
	return buf
}

// matchesWalk appends the matches among logical rows [lo, hi), visiting every
// row with the same add-and-wrap stride over C2 as RowsAt.
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

// matchesLookup appends the logical rows of [lo, hi), a run no longer than
// the displacement table, whose key lies in [keyLo, keyHi], a range inside
// the key domain. Row lo+i matches when C2(lo) + disp(i) lands in the range
// modulo rows, that is when disp(i) lies in the cyclic interval that starts
// at keyLo − C2(lo) and is as wide as the range: the rows are found by
// looking the interval's start up in bucket and walking disp over the interval
// (in two pieces if it wraps past rows), then sorted back into row order.
func (t *Synthetic) matchesLookup(lo, hi, keyLo, keyHi int64, buf []Match) []Match {
	if keyLo > keyHi {
		return buf
	}
	from := len(buf)
	n, m := t.rows, int32(hi-lo)
	start := keyLo - t.key(lo) // the displacement that lands on keyLo
	if start < 0 {
		start += n
	}
	end := start + (keyHi - keyLo) // the one that lands on keyHi; past rows if the interval wraps
	base := keyLo - start          // a match's key is base + its displacement; base moves up by rows for the wrapped piece

	// The first displacement ≥ start. (Not a binary search: a scan meets
	// logical pages in π's order, start is as good as random, and the
	// search's mispredicted branches cost more than the rest of the lookup.)
	disp := t.disp
	j := int(t.bucket[start>>t.shift])
	for j < len(disp) && disp[j].value < start {
		j++
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

	found := buf[from:]
	sortByID(found)
	for k := range found {
		found[k].C1 = int64(mix64(uint64(found[k].ID)) % uint64(n))
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

// key returns C2 for a logical row in [0, rows): (a·row + b) mod rows. a and
// row are below rows, so under 2³¹ rows the product cannot overflow and one
// division reduces it; b is below rows too, and a subtraction wraps the sum.
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

// RowForKey returns the unique row whose C2 equals key: both permutations
// inverted, the affine map to the logical row and π to where its page lies.
// It is what lets the synthetic B+-tree enumerate entries in key order
// without storing them.
func (t *Synthetic) RowForKey(key int64) int64 {
	return t.physical(t.logicalForKey(key))
}

func (t *Synthetic) logicalForKey(key int64) int64 {
	if key < 0 || key >= t.rows {
		panic(fmt.Sprintf("table %q: key %d outside domain [0,%d)", t.name, key, t.rows))
	}
	d := key - t.b
	if d < 0 {
		d += t.rows
	}
	return mulMod(t.aInv, d, t.rows)
}

// physical returns the row at which logical row l is stored: logicalRun's
// translation, inverted.
func (t *Synthetic) physical(l int64) int64 {
	if l >= t.placed {
		return l
	}
	rpp := int64(t.rpp)
	page := l / rpp
	return l + (t.place.inverse(page)-page)*rpp
}

// KeyOrder walks a synthetic table's rows in key order. The logical rows of
// consecutive keys lie a fixed stride apart, so a step costs an add-and-wrap
// and one π⁻¹ where RowForKey costs a modular multiplication more.
type KeyOrder struct {
	t *Synthetic
	l int64 // the logical row of the next key
}

// KeyOrderFrom starts a walk at key: its Next calls return RowForKey(key),
// RowForKey(key+1), … and after the last key those of key 0 on.
func (t *Synthetic) KeyOrderFrom(key int64) KeyOrder {
	return KeyOrder{t: t, l: t.logicalForKey(key)}
}

// Next returns the row of the walk's current key and steps to the next key.
func (w *KeyOrder) Next() int64 {
	row := w.t.physical(w.l)
	if w.l += w.t.aInv; w.l >= w.t.rows {
		w.l -= w.t.rows
	}
	return row
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
