package table

import (
	"math/rand"
	"slices"
	"testing"

	"pioqo/internal/device"
	"pioqo/internal/disk"
)

// π and π⁻¹ undo each other and map [0, pages) onto itself, at every domain
// from the identity's through block widths odd and even.
func TestPlacementIsABijection(t *testing.T) {
	for _, pages := range []int64{0, 1, 2, 3, 4, 5, 31, 32, 33, 1000, 12288} {
		p := newPlacement(pages, rand.New(rand.NewSource(pages)))
		seen := make([]bool, pages)
		for page := int64(0); page < pages; page++ {
			image := p.forward(page)
			if image < 0 || image >= pages || seen[image] {
				t.Fatalf("pages=%d: π(%d) = %d, out of range or taken", pages, page, image)
			}
			seen[image] = true
			if back := p.inverse(image); back != page {
				t.Fatalf("pages=%d: π⁻¹(π(%d)) = %d", pages, page, back)
			}
		}
	}
}

// A distinct-page count cannot tell scattered rows from rows a constant
// stride apart, and a constant stride is what makes a disk's cost for a
// serial index scan a matter of rotational alignment. Over 500 consecutive
// keys on each Table-1 heap (12 288 pages at 1, 33 and 500 rows a page), the
// step from one key's page to the next key's must have no favourite: no
// single page delta may account for more than 5 % of the steps, and of the
// deltas' residues modulo a disk track's worth of pages, sorted into 16
// equal bins, no bin may hold more than 12.5 % — twice its uniform share.
// The affine map alone puts all 499 steps on two to four deltas (at one row a
// page 447 on one of them) and, those sharing a residue, in a single bin.
func TestSyntheticPlacementHasNoStride(t *testing.T) {
	const pages, keys, bins = 12288, 500, 16
	track := device.DefaultHDDConfig().TrackBytes / disk.PageSize
	for _, rpp := range []int{1, 33, 500} {
		for _, seed := range []int64{1, 2} {
			tb := NewSynthetic(newManager(), "t", pages*int64(rpp), rpp, seed)
			first := tb.Rows() / 3
			deltas := make(map[int64]int)
			var residues [bins]int
			prev := PageOf(tb.RowForKey(first), rpp)
			for k := first + 1; k < first+keys; k++ {
				page := PageOf(tb.RowForKey(k), rpp)
				delta := page - prev
				deltas[delta]++
				residues[((delta%track)+track)%track*bins/track]++
				prev = page
			}
			steps := keys - 1
			for delta, count := range deltas {
				if count*100 > steps*5 {
					t.Errorf("rpp=%d seed=%d: %d of %d steps move %+d pages", rpp, seed, count, steps, delta)
				}
			}
			if fullest := slices.Max(residues[:]); fullest*1000 > steps*125 {
				t.Errorf("rpp=%d seed=%d: %d of %d steps fall in one sixteenth of a track (%v)",
					rpp, seed, fullest, steps, residues)
			}
		}
	}
}

// FuzzSyntheticPlacement holds every accessor of a synthetic table to the
// others, on whatever shape and run the fuzzer draws: MatchesAt is RowsAt
// filtered by hand, RowsAt is RowAt row by row, RowForKey inverts RowAt's
// key, and a key-order walk visits RowForKey of each key in turn. The
// checked-in corpus holds the cases the placement adds: runs that cross page
// boundaries or end in the unmoved partial last page, tables smaller than a
// page, and tables of one, two and three rows.
func FuzzSyntheticPlacement(f *testing.F) {
	f.Add(uint32(2002), uint16(32), int64(3), uint32(40), uint16(70), uint32(110), uint32(64))
	f.Fuzz(func(t *testing.T, rowsRaw uint32, rppRaw uint16, seed int64, loRaw uint32, lenRaw uint16, keyRaw, widthRaw uint32) {
		rows := int64(rowsRaw%40000) + 1
		rpp := int(rppRaw%600) + 1
		tb := NewSynthetic(newManager(), "t", rows, rpp, seed)
		lo := int64(loRaw) % rows
		hi := min(lo+int64(lenRaw)%int64(3*rpp+2), rows)
		keyLo := int64(keyRaw)%(rows+20) - 10         // from below the domain to past it
		keyHi := keyLo + int64(widthRaw)%(rows+8) - 4 // now and then inverted

		all := tb.RowsAt(lo, hi, nil)
		if int64(len(all)) != hi-lo {
			t.Fatalf("RowsAt(%d, %d) gave %d rows", lo, hi, len(all))
		}
		for i, row := range all {
			r := lo + int64(i)
			if row != tb.RowAt(r) {
				t.Fatalf("RowsAt(%d, %d)[%d] = %+v, RowAt(%d) = %+v", lo, hi, i, row, r, tb.RowAt(r))
			}
			if back := tb.RowForKey(row.C2); back != r { // panics on a key outside the domain
				t.Fatalf("row %d has key %d, which RowForKey sends to %d", r, row.C2, back)
			}
		}
		want := matchesByHand(tb, lo, hi, keyLo, keyHi)
		if got := tb.MatchesAt(lo, hi, keyLo, keyHi, nil); !slices.Equal(got, want) {
			t.Fatalf("MatchesAt(%d, %d, %d, %d) = %+v, RowsAt filtered = %+v", lo, hi, keyLo, keyHi, got, want)
		}

		key := lo // any key will do
		walk := tb.KeyOrderFrom(key)
		for i := int64(0); i < min(hi-lo, 64); i++ {
			if got, want := walk.Next(), tb.RowForKey((key+i)%rows); got != want {
				t.Fatalf("key-order walk from %d, step %d: row %d, RowForKey %d", key, i, got, want)
			}
		}
	})
}
