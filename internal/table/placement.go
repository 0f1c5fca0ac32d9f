package table

import (
	"math/bits"
	"math/rand"
)

// placement is a keyed pseudo-random bijection π over [0, pages), computed
// and not stored: a three-round Feistel network over a page number split as
// l·2^rbits + r, the right half r a field of rbits bits that a round XORs
// into, the left half l a counter below left that a round adds into modulo
// left. left is the least count that covers the domain, so the block
// overshoots pages by less than 2^rbits ≈ √pages; an image past the end is
// sent round again (cycle walking), which with so small an overshoot is rare
// and a branch the host predicts. Synthetic puts logical page forward(p) in
// physical page p.
//
// The affine key map alone leaves the rows of consecutive keys a constant
// number of pages apart, and what a serial index scan then costs on a disk
// is the rotational alignment of that one stride — a property of the
// multiplier, not of the device. Under π the distance between them is as
// irregular as between rows drawn at random, which is what the paper's
// tables hold and what calibration measures.
type placement struct {
	pages uint64
	left  uint64
	rbits uint
	rmask uint64
	keys  [3]uint64
}

// newPlacement draws π's round keys from rng. Below two pages there is
// nothing to permute: the zero placement, of no pages, is the identity.
func newPlacement(pages int64, rng *rand.Rand) placement {
	if pages < 2 {
		return placement{}
	}
	p := placement{pages: uint64(pages)}
	p.rbits = uint(bits.Len64(p.pages-1)) / 2
	p.rmask = 1<<p.rbits - 1
	p.left = (p.pages + p.rmask) >> p.rbits
	for i := range p.keys {
		p.keys[i] = rng.Uint64()
	}
	return p
}

// round is the Feistel round function: the keyed half, multiplied out and
// folded, so that its high bits (which scaled picks) and its low bits (which
// a mask picks) both depend on every bit of the half.
func round(half, key uint64) uint64 {
	h := (half + key) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// scaled maps a round's output onto [0, left).
func (p *placement) scaled(h uint64) uint64 {
	hi, _ := bits.Mul64(h, p.left)
	return hi
}

// forward returns π(page) for a page in [0, pages).
func (p *placement) forward(page int64) int64 {
	if p.pages == 0 {
		return page
	}
	x := uint64(page)
	for {
		l, r := x>>p.rbits, x&p.rmask
		if l += p.scaled(round(r, p.keys[0])); l >= p.left {
			l -= p.left
		}
		r ^= round(l, p.keys[1]) & p.rmask
		if l += p.scaled(round(r, p.keys[2])); l >= p.left {
			l -= p.left
		}
		if x = l<<p.rbits | r; x < p.pages {
			return int64(x)
		}
	}
}

// inverse returns π⁻¹(page): the rounds of forward, undone last to first.
func (p *placement) inverse(page int64) int64 {
	if p.pages == 0 {
		return page
	}
	x := uint64(page)
	for {
		l, r := x>>p.rbits, x&p.rmask
		if l += p.left - p.scaled(round(r, p.keys[2])); l >= p.left {
			l -= p.left
		}
		r ^= round(l, p.keys[1]) & p.rmask
		if l += p.left - p.scaled(round(r, p.keys[0])); l >= p.left {
			l -= p.left
		}
		if x = l<<p.rbits | r; x < p.pages {
			return int64(x)
		}
	}
}
