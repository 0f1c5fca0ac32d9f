package table

import (
	"fmt"
	"math/rand"

	"pioqo/internal/disk"
)

// Partitioning a materialized table splits one logical rowset across N
// shards, each shard holding a contiguous heap of its own rows on its own
// node's device. The generator below draws the FULL rowset first, in
// exactly the order the unsharded constructor draws it, and only then
// deals rows out to shards — so the union of the partitions is the same
// multiset of rows whatever the shard count, and merged decomposable
// aggregates (MAX/COUNT/SUM/GROUP BY) are byte-identical to the unsharded
// answer.

// Columns is a generated rowset: parallel C1/C2 value slices in row order.
type Columns struct {
	C1, C2 []int64
	// Domain is the C2 key domain the values were drawn from: C2 values
	// lie in [0, Domain).
	Domain int64
}

// DrawColumns generates the uniform rowset NewMaterialized would store,
// using the identical draw order (C1 then C2 per row).
func DrawColumns(rows int64, seed int64) Columns {
	return drawColumns(rows, seed, nil)
}

// DrawColumnsZipf generates the Zipf-skewed rowset NewMaterializedZipf
// would store.
func DrawColumnsZipf(rows int64, seed int64, s float64) Columns {
	if s <= 1 {
		panic(fmt.Sprintf("table: zipf exponent %f must exceed 1", s))
	}
	return drawColumns(rows, seed, func(rng *rand.Rand) func() int64 {
		z := rand.NewZipf(rng, s, 1, uint64(rows-1))
		return func() int64 { return int64(z.Uint64()) }
	})
}

func drawColumns(rows int64, seed int64, c2Source func(*rand.Rand) func() int64) Columns {
	if rows <= 0 {
		panic(fmt.Sprintf("table: drawing %d rows", rows))
	}
	rng := rand.New(rand.NewSource(seed))
	c := Columns{C1: make([]int64, rows), C2: make([]int64, rows), Domain: rows}
	drawC2 := func() int64 { return rng.Int63n(rows) }
	if c2Source != nil {
		drawC2 = c2Source(rng)
	}
	for i := range c.C1 {
		c.C1[i] = rng.Int63n(rows)
		c.C2[i] = drawC2()
	}
	return c
}

// NewMaterializedFrom builds a materialized heap over pre-generated
// columns, allocating its file on m. domain is the C2 key domain — for a
// partition it is the parent table's domain, not the partition's row
// count, so selectivity estimation and index search stay anchored to the
// global key space. Every C2 value must lie in [0, domain): the index and
// the histogram count keys over that range, so a key outside it is a bug
// in the caller, and the constructor panics naming the table.
func NewMaterializedFrom(m *disk.Manager, name string, rpp int, c1, c2 []int64, domain int64) *Materialized {
	if len(c1) != len(c2) || len(c1) == 0 {
		panic(fmt.Sprintf("table %q: %d C1 values vs %d C2 values", name, len(c1), len(c2)))
	}
	rows := int64(len(c1))
	validateShape(name, rows, rpp)
	t := &Materialized{
		name:   name,
		rows:   rows,
		rpp:    rpp,
		c1:     c1,
		c2:     c2,
		domain: domain,
	}
	for row, key := range c2 {
		if uint64(key) >= uint64(t.KeyDomain()) {
			panic(fmt.Sprintf("table %q: row %d has key %d outside domain [0,%d)", name, row, key, t.KeyDomain()))
		}
	}
	t.file = m.MustAllocate(name, pagesFor(rows, rpp))
	return t
}

// HashShard returns the shard a key belongs to under hash partitioning.
// The splitmix64 finalizer decorrelates the shard from the key's magnitude
// so skewed key distributions still spread evenly.
func HashShard(key int64, shards int) int {
	return int(mix64(uint64(key)) % uint64(shards))
}

// RangeShard returns the shard a key belongs to under range partitioning
// with the given upper-exclusive cut points (len = shards-1, ascending):
// shard i holds keys in [cuts[i-1], cuts[i]).
func RangeShard(key int64, cuts []int64) int {
	for i, c := range cuts {
		if key < c {
			return i
		}
	}
	return len(cuts)
}

// EqualWidthCuts returns the naive range-partition cut points splitting
// [0, domain) into shards equal-width slices — the bounds a rebalance pass
// improves on when the key distribution is skewed.
func EqualWidthCuts(domain int64, shards int) []int64 {
	cuts := make([]int64, shards-1)
	for i := range cuts {
		cuts[i] = domain * int64(i+1) / int64(shards)
	}
	return cuts
}

// Partition deals the rowset out to shards: assign(C2) names each row's
// shard, and rows keep their relative order within a shard. The returned
// rowIDs give each partition row's original row number, letting tests map
// partition rows back to the unsharded table. One pass assigns the rows
// and counts each shard's, so every slice is made at its final size.
func (c Columns) Partition(shards int, assign func(key int64) int) (parts []Columns, rowIDs [][]int64) {
	shardOf := make([]int32, len(c.C2))
	sizes := make([]int, shards)
	for row, key := range c.C2 {
		s := assign(key)
		shardOf[row] = int32(s)
		sizes[s]++
	}
	parts = make([]Columns, shards)
	rowIDs = make([][]int64, shards)
	for s, n := range sizes {
		parts[s] = Columns{C1: make([]int64, 0, n), C2: make([]int64, 0, n), Domain: c.Domain}
		rowIDs[s] = make([]int64, 0, n)
	}
	for row, s := range shardOf {
		parts[s].C1 = append(parts[s].C1, c.C1[row])
		parts[s].C2 = append(parts[s].C2, c.C2[row])
		rowIDs[s] = append(rowIDs[s], int64(row))
	}
	return parts, rowIDs
}
