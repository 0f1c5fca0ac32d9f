// Package btree implements the non-clustered secondary index the paper's
// index scans traverse: a bulk-loaded B+-tree over a table's C2 column whose
// leaves hold (key, row) entries in key order.
//
// Like the heap tables, the index has two backings behind one type:
// materialized (entries stored in key order, counted into place from a
// table.Materialized's keys in linear time, with no comparison sort) and
// synthetic (entries computed from a table.Synthetic's key permutation —
// keys are dense in [0, rows), so the entry at global position k is exactly
// key k). Index pages occupy a disk file of their own: internal pages first,
// then one page per leaf, so leaf reads cost real simulated I/O through the
// buffer pool.
package btree

import (
	"fmt"
	"sort"

	"pioqo/internal/disk"
	"pioqo/internal/table"
)

// Entry is one (key, row) pair in a leaf page.
type Entry struct {
	Key int64
	Row int64
}

// DefaultLeafCap is the default number of entries per leaf page: 4 KB pages
// with 16-byte (key, row) entries and a small header.
const DefaultLeafCap = 250

// DefaultFanout is the default separator fanout of internal pages.
const DefaultFanout = 400

// Index is a bulk-loaded B+-tree over a heap table's C2 column.
type Index struct {
	name    string
	file    *disk.File
	leafCap int
	fanout  int
	entries int64
	height  int
	inner   int64 // number of internal pages, stored before the leaves

	sorted []Entry          // materialized backing (nil for synthetic)
	syn    *table.Synthetic // synthetic backing (nil for materialized)
}

// NewMaterialized bulk-loads an index over t's C2 column, allocating its
// page file on m. leafCap and fanout may be zero to use the defaults.
//
// The load is a counting sort by key over [0, t.KeyDomain()), linear in
// rows plus domain: next[k] starts at the position of key k's first entry,
// and rows are placed in ascending row order, so each key's run holds its
// rows ascending — exactly the (Key, Row) order, a total order since rows
// are distinct. TestMaterializedBuildMatchesComparisonSort and
// FuzzMaterializedBuild hold it to a (Key, Row) comparison sort.
func NewMaterialized(m *disk.Manager, t *table.Materialized, leafCap, fanout int) *Index {
	idx := newIndex(t.Name()+"_c2", t.Rows(), leafCap, fanout)
	next := make([]int64, t.KeyDomain()+1)
	for r := int64(0); r < t.Rows(); r++ {
		next[t.RowAt(r).C2+1]++
	}
	for k := 1; k < len(next); k++ {
		next[k] += next[k-1]
	}
	idx.sorted = make([]Entry, t.Rows())
	for r := int64(0); r < t.Rows(); r++ {
		key := t.RowAt(r).C2
		idx.sorted[next[key]] = Entry{Key: key, Row: r}
		next[key]++
	}
	idx.allocate(m)
	return idx
}

// NewSynthetic builds the analytic index over a synthetic table: entry k is
// (k, t.RowForKey(k)), so nothing is stored.
func NewSynthetic(m *disk.Manager, t *table.Synthetic, leafCap, fanout int) *Index {
	idx := newIndex(t.Name()+"_c2", t.Rows(), leafCap, fanout)
	idx.syn = t
	idx.allocate(m)
	return idx
}

func newIndex(name string, entries int64, leafCap, fanout int) *Index {
	if leafCap <= 0 {
		leafCap = DefaultLeafCap
	}
	if fanout <= 1 {
		fanout = DefaultFanout
	}
	idx := &Index{name: name, leafCap: leafCap, fanout: fanout, entries: entries}
	// Height and internal page count from the leaf count upward.
	nodes := idx.Leaves()
	idx.height = 1
	for nodes > 1 {
		nodes = (nodes + int64(fanout) - 1) / int64(fanout)
		idx.inner += nodes
		idx.height++
	}
	return idx
}

func (x *Index) allocate(m *disk.Manager) {
	x.file = m.MustAllocate(x.name, x.inner+x.Leaves())
}

// Name returns the index name.
func (x *Index) Name() string { return x.name }

// File returns the disk extent holding the index pages.
func (x *Index) File() *disk.File { return x.file }

// LeafCap returns the number of entries per full leaf page.
func (x *Index) LeafCap() int { return x.leafCap }

// Leaves returns the number of leaf pages.
func (x *Index) Leaves() int64 {
	return (x.entries + int64(x.leafCap) - 1) / int64(x.leafCap)
}

// Height returns the number of levels, counting the leaf level; a one-leaf
// tree has height 1.
func (x *Index) Height() int { return x.height }

// InternalPages returns the number of non-leaf pages.
func (x *Index) InternalPages() int64 { return x.inner }

// LeafPage returns the file page number of leaf leafNo. Internal pages come
// first in the file.
func (x *Index) LeafPage(leafNo int64) int64 {
	if leafNo < 0 || leafNo >= x.Leaves() {
		panic(fmt.Sprintf("btree %s: leaf %d of %d", x.name, leafNo, x.Leaves()))
	}
	return x.inner + leafNo
}

// DescentPath returns the file pages an index traversal reads walking from
// the root to the leaf level (excluding the leaf itself): one page per
// internal level. The concrete page identities matter only for buffer-pool
// residency, so the path uses the first page of each level.
func (x *Index) DescentPath() []int64 {
	if x.height <= 1 {
		return nil
	}
	path := make([]int64, 0, x.height-1)
	// Level sizes from the level just above the leaves up to the root.
	var levels []int64
	nodes := x.Leaves()
	for nodes > 1 {
		nodes = (nodes + int64(x.fanout) - 1) / int64(x.fanout)
		levels = append(levels, nodes)
	}
	// Pages are laid out root first. levels is bottom-up, so walk backwards.
	page := int64(0)
	for i := len(levels) - 1; i >= 0; i-- {
		path = append(path, page)
		page += levels[i]
	}
	return path
}

// SearchGE returns the global position of the first entry with key >= key,
// or the entry count if no such entry exists.
func (x *Index) SearchGE(key int64) int64 {
	if x.syn != nil {
		return clamp(key, 0, x.entries)
	}
	return int64(sort.Search(len(x.sorted), func(i int) bool {
		return x.sorted[i].Key >= key
	}))
}

// SearchGT returns the global position of the first entry with key > key,
// or the entry count if no such entry exists.
func (x *Index) SearchGT(key int64) int64 {
	if x.syn != nil {
		return clamp(key+1, 0, x.entries)
	}
	return int64(sort.Search(len(x.sorted), func(i int) bool {
		return x.sorted[i].Key > key
	}))
}

// RangeCount returns the number of entries with lo <= key <= hi.
func (x *Index) RangeCount(lo, hi int64) int64 {
	if hi < lo {
		return 0
	}
	return x.SearchGT(hi) - x.SearchGE(lo)
}

// LeafOf converts a global entry position to its (leaf, slot) coordinates.
func (x *Index) LeafOf(pos int64) (leaf int64, slot int) {
	return pos / int64(x.leafCap), int(pos % int64(x.leafCap))
}

// LeafEntries appends leaf leafNo's entries to buf (reusing its backing
// array) and returns the result in key order.
func (x *Index) LeafEntries(leafNo int64, buf []Entry) []Entry {
	lo := leafNo * int64(x.leafCap)
	hi := lo + int64(x.leafCap)
	if hi > x.entries {
		hi = x.entries
	}
	if lo >= hi {
		panic(fmt.Sprintf("btree %s: empty leaf %d", x.name, leafNo))
	}
	// Sized once: a fresh scratch buffer would otherwise double its way up
	// to a leaf.
	if n := int(hi - lo); cap(buf) < n {
		buf = make([]Entry, 0, n)
	}
	buf = buf[:0]
	if x.syn != nil {
		// One inversion of the key map for the first entry; the table's
		// key-order walk steps to each of the rest.
		walk := x.syn.KeyOrderFrom(lo)
		for k := lo; k < hi; k++ {
			buf = append(buf, Entry{Key: k, Row: walk.Next()})
		}
		return buf
	}
	return append(buf, x.sorted[lo:hi]...)
}

// EntriesAt appends the n entries at global positions [pos, pos+n) to buf
// (reusing its backing array) and returns the result in key order — the
// part of a leaf a reader takes, without copying the rest of it.
func (x *Index) EntriesAt(pos int64, n int, buf []Entry) []Entry {
	if pos < 0 || n < 0 || pos+int64(n) > x.entries {
		panic(fmt.Sprintf("btree %s: entries [%d, %d) of %d", x.name, pos, pos+int64(n), x.entries))
	}
	if cap(buf) < n {
		buf = make([]Entry, 0, n)
	}
	buf = buf[:0]
	if x.syn != nil {
		walk := x.syn.KeyOrderFrom(pos)
		for k := pos; k < pos+int64(n); k++ {
			buf = append(buf, Entry{Key: k, Row: walk.Next()})
		}
		return buf
	}
	return append(buf, x.sorted[pos:pos+int64(n)]...)
}

func clamp(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
