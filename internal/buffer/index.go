package buffer

import "math/bits"

// pageIndex is the pool's page table: packed page key → arena slot, as a
// fixed open-addressed hash table. It is sized once for the pool's capacity
// (a power of two of at least twice as many cells, so a probe run stays a
// few cells long), never grows, and allocates nothing after construction —
// an array like the arena it points into.
//
// Probing is linear from the key's home cell (Fibonacci hashing: the high
// bits of key × 2⁶⁴/φ, which spreads the consecutive page numbers a scan
// installs). Deletion shifts the tail of the probe run back over the hole
// instead of leaving a tombstone, so the table's state depends only on the
// keys it holds and how they arrived, and a lookup never walks over dead
// cells however long the pool has been evicting.
type pageIndex struct {
	cells []indexCell
	shift uint // 64 − log₂ len(cells): what is left of the product is the home cell
	n     int  // keys held
}

// indexCell is one cell: empty when slot is none.
type indexCell struct {
	key  uint64
	slot int32
}

// newPageIndex returns an empty index with room for capacity keys.
func newPageIndex(capacity int) pageIndex {
	size := 1 << bits.Len(uint(2*capacity-1)) // least power of two ≥ 2 × capacity
	x := pageIndex{cells: make([]indexCell, size), shift: uint(64 - bits.TrailingZeros(uint(size)))}
	for i := range x.cells {
		x.cells[i].slot = none
	}
	return x
}

// home returns the cell a key's probe run starts at.
func (x *pageIndex) home(key uint64) int {
	return int(key * 0x9E3779B97F4A7C15 >> x.shift)
}

// get returns the slot held for key, or none.
func (x *pageIndex) get(key uint64) int32 {
	mask := len(x.cells) - 1
	for i := x.home(key); ; i = (i + 1) & mask {
		c := &x.cells[i]
		if c.slot == none || c.key == key {
			return c.slot
		}
	}
}

// put records slot for a key the index does not hold. The caller keeps the
// number of keys within the capacity the index was made for, which leaves
// at least half the cells empty.
func (x *pageIndex) put(key uint64, slot int32) {
	mask := len(x.cells) - 1
	i := x.home(key)
	for x.cells[i].slot != none {
		i = (i + 1) & mask
	}
	x.cells[i] = indexCell{key, slot}
	x.n++
}

// del removes a key the index holds. The cells after it in its probe run
// move back to close the hole: a cell may move into the hole only if its
// home is not after the hole (cyclically, within the run) — otherwise its
// own lookups, which start at its home, would no longer reach it.
func (x *pageIndex) del(key uint64) {
	mask := len(x.cells) - 1
	hole := x.home(key)
	for x.cells[hole].key != key || x.cells[hole].slot == none {
		hole = (hole + 1) & mask
	}
	for j := (hole + 1) & mask; x.cells[j].slot != none; j = (j + 1) & mask {
		if (j-x.home(x.cells[j].key))&mask >= (j-hole)&mask {
			x.cells[hole] = x.cells[j]
			hole = j
		}
	}
	x.cells[hole].slot = none
	x.n--
}
