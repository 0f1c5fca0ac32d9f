package buffer

import (
	"math/rand"
	"testing"

	"pioqo/internal/disk"
)

// checkIndex compares the index with the reference: the same keys under the
// same slots, nothing else, and every cell in use reachable from its home.
func checkIndex(t *testing.T, x *pageIndex, ref map[uint64]int32, step int) {
	t.Helper()
	if x.n != len(ref) {
		t.Fatalf("step %d: index counts %d keys, reference holds %d", step, x.n, len(ref))
	}
	used := 0
	for _, c := range x.cells {
		if c.slot == none {
			continue
		}
		used++
		if want, ok := ref[c.key]; !ok || want != c.slot || x.get(c.key) != c.slot {
			t.Fatalf("step %d: cell holds %#x → %d; reference %d (held %v), lookup %d",
				step, c.key, c.slot, want, ok, x.get(c.key))
		}
	}
	if used != len(ref) {
		t.Fatalf("step %d: %d cells in use for %d keys", step, used, len(ref))
	}
}

// TestPageIndexMatchesMap is the differential test of the open-addressed
// page index against a map: random puts, gets and deletes over keys drawn
// the way the pool draws them (consecutive pages of a few files) and over
// keys forced onto chosen home cells — one cell, so every key collides, and
// the last cells of the array, so clusters wrap around its end — with the
// table repeatedly filled to capacity and drained.
func TestPageIndexMatchesMap(t *testing.T) {
	const (
		capacity = 96 // 256 cells
		steps    = 250_000
	)
	x := newPageIndex(capacity)
	if len(x.cells) != 256 {
		t.Fatalf("%d cells for capacity %d, want 256", len(x.cells), capacity)
	}
	// inverse undoes the hash's multiplication (Newton's iteration mod 2⁶⁴),
	// so a key can be made for any home cell.
	inverse := uint64(1)
	for i := 0; i < 6; i++ {
		inverse *= 2 - 0x9E3779B97F4A7C15*inverse
	}
	keyAt := func(home int, salt uint64) uint64 {
		return inverse * (uint64(home)<<x.shift | salt&(1<<x.shift-1))
	}
	if x.home(keyAt(255, 12345)) != 255 || x.home(keyAt(0, 99)) != 0 {
		t.Fatal("keyAt does not land keys on the home cell it is given")
	}

	rng := rand.New(rand.NewSource(1))
	draw := func() uint64 {
		switch rng.Intn(4) {
		case 0:
			return keyAt(17, rng.Uint64()) // all on one home cell
		case 1:
			return keyAt(253+rng.Intn(3), rng.Uint64()) // clusters that wrap the end of the array
		default:
			return pack(disk.FileID(1+rng.Intn(3)), rng.Int63n(400)) // a scan's neighbouring pages
		}
	}
	ref := map[uint64]int32{}
	var held []uint64
	filling := true
	for step := 0; step < steps; step++ {
		// Fill to capacity, drain to empty, and again; in between, a coin.
		switch {
		case len(held) == capacity:
			filling = false
		case len(held) == 0:
			filling = true
		}
		put := filling
		if rng.Intn(4) == 0 {
			put = rng.Intn(2) == 0 && len(held) < capacity || len(held) == 0
		}
		if put {
			key := draw()
			if _, ok := ref[key]; !ok {
				slot := rng.Int31n(capacity)
				x.put(key, slot)
				ref[key] = slot
				held = append(held, key)
			}
		} else {
			// Any held key: the oldest sit in the middle of the clusters the
			// later ones piled onto.
			i := rng.Intn(len(held))
			key := held[i]
			held[i] = held[len(held)-1]
			held = held[:len(held)-1]
			x.del(key)
			delete(ref, key)
		}
		probe := draw()
		want, ok := ref[probe]
		if !ok {
			want = none
		}
		if got := x.get(probe); got != want {
			t.Fatalf("step %d: get(%#x) = %d, want %d", step, probe, got, want)
		}
		if step%64 == 0 || len(held) == capacity {
			checkIndex(t, &x, ref, step)
		}
	}

	// The fixed case: five keys on one home cell at the end of the array, so
	// the cluster wraps, and the middle one deleted.
	x = newPageIndex(capacity)
	ref = map[uint64]int32{}
	for i := 0; i < 5; i++ {
		x.put(keyAt(254, uint64(i)), int32(i))
		ref[keyAt(254, uint64(i))] = int32(i)
	}
	x.del(keyAt(254, 2))
	delete(ref, keyAt(254, 2))
	checkIndex(t, &x, ref, -1)
	for i, want := range []int32{0, 1, 3, 4} {
		if c := x.cells[(254+i)&255]; c.slot != want {
			t.Errorf("after deleting the middle of a wrapped cluster, cell %d holds slot %d, want %d", (254+i)&255, c.slot, want)
		}
	}
	if x.cells[2].slot != none {
		t.Errorf("the cluster's last cell was not emptied by the shift back")
	}
}
