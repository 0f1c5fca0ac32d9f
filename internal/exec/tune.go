// Adaptive-parallelism hooks: the executor's side of the feedback loop that
// retunes a running scan's worker count and readahead window at batch
// boundaries. The executor owns the *mechanism* — elastic worker fleets, a
// degree-aware readahead window, speculation offers derived from plan
// structure — while the *policy* lives behind the Tuner interface
// (implemented by adapt.Controller), which in turn changes degree only
// through the broker lease path (the lease-grow row of the root
// boundaries_test.go keeps every other package off Lease.Grow).
//
// Every hook is nil-inert: a Spec without a Tuner runs the same fleet with a
// tick that never retunes, emits no extra events, and stays byte-identical
// to the pre-adaptive executor.
package exec

import (
	"pioqo/internal/btree"
	"pioqo/internal/disk"
	"pioqo/internal/table"
)

// Tuner is the feedback-controller hook a scan consults at its batch
// boundaries (page for full scans, leaf batch for index scans). Implemented
// by adapt.Controller; nil disables adaptivity.
type Tuner interface {
	// Tick is called at batch boundaries with the live worker count and
	// returns the target degree. The tuner rate-limits its own decisions in
	// virtual time; a call between decisions just returns the current
	// target. Growth above the lease's grant must be secured by the tuner
	// through the broker (Lease.Grow) *before* the larger target is
	// returned — the executor spawns workers, it never sources credits.
	Tick(live int) int

	// MaxDegree is the hard cap on elastic growth. The scan sizes its
	// per-worker state and clamps its readahead geometry against it, so a
	// fully grown fleet can never exhaust the pool.
	MaxDegree() int

	// NoteFetch reports one demand page fetch — the speculation hit
	// accounting: a speculated page that is then demand-fetched was a
	// correct guess.
	NoteFetch(f *disk.File, page int64)

	// SpeculateRun offers a predicted upcoming run [start, start+count) in
	// f, derived from plan structure (the stripe beyond a full scan's
	// flow-control window, the next index leaf and its heap-page fan). The
	// tuner pre-issues it only within its confidence and pool budget.
	SpeculateRun(f *disk.File, start int64, count int)

	// FinishScan ends the scan: outstanding speculation is canceled
	// (mispredicted pages dropped from the pool) and the controller
	// detaches. Called on completion and abort alike.
	FinishScan()
}

// liveWindow is clampReadahead's flow-control window re-evaluated at block
// issue time against the *live* degree: an adaptively grown fleet pins more
// pages, so the number of in-flight readahead blocks shrinks as workers
// join. The floor of one block keeps the scan moving — safe because the
// block geometry was clamped against MaxDegree up front, so one block plus
// a full fleet's pins always fits in half the pool.
func liveWindow(capacity, degree, blockPages, prefetchBlocks int) int {
	if blockPages <= 1 {
		return prefetchBlocks
	}
	n := (capacity/2 - degree) / blockPages
	if n > prefetchBlocks {
		n = prefetchBlocks
	}
	if n < 1 {
		n = 1
	}
	return n
}

// guidedSteps is the tuned index scan's work distribution: instead of the
// static per-worker entry-range split, workers claim leaf batches from a
// shared cursor. It returns the initial fleet size and the claiming step.
// Each processed leaf also offers the *next* leaf and its heap-page fan to
// the speculator (§3.3 stops per-worker prefetch at the leaf boundary —
// speculation is how the adaptive scan reaches across it).
//
// Claims are sized by guided self-scheduling: each claim takes a 1/max
// share of the *remaining* range (never more than the rest of its leaf).
// Early claims match the static scan's per-worker chunk, so a full fleet's
// first round mirrors the static split; later claims shrink geometrically,
// so the tail never hands one worker a full share while the rest sit idle —
// the makespan cliff a fixed quantum falls off. Re-claiming within a leaf
// is cheap (the leaf page is pool-resident after its first fetch) but not
// free: every claim pays the leaf inspection again, which is why claims
// start coarse.
func guidedSteps(ctx *Context, spec *Spec, fl *fleet, startPos, endPos int64) (int, func(w *worker) bool) {
	t, x := spec.Table, spec.Index
	rpp := t.RowsPerPage()

	// Workers beyond the entry count could never find a claim: cap the
	// fleet so they are never spawned — the static split likewise skips
	// workers whose chunk is empty, and on a narrow range the useless
	// startups would otherwise contend for cores with the scan itself.
	fl.max = int(min(int64(fl.max), endPos-startPos))
	initial := min(spec.Degree, fl.max)

	cursor := startPos // shared work queue: next unclaimed entry position

	// Offer the next leaf's fan to the speculator: its leaf page plus the
	// first few heap pages its entries reference — but only when the
	// qualifying range actually reaches into that leaf, or every entry
	// would be a guaranteed misprediction. SpeculateRun never parks, so one
	// scratch buffer serves the whole fleet.
	var nextBuf []btree.Entry
	offer := func(leaf, nextStart int64) {
		nl := leaf + 1
		if nl >= x.Leaves() || cursor >= endPos || nextStart >= endPos {
			return
		}
		spec.Tune.SpeculateRun(x.File(), x.LeafPage(nl), 1)
		nextBuf = x.LeafEntries(nl, nextBuf)
		fan := len(nextBuf)
		if fan > speculativeFan {
			fan = speculativeFan
		}
		for i := 0; i < fan; i++ {
			spec.Tune.SpeculateRun(t.File(), table.PageOf(nextBuf[i].Row, rpp), 1)
		}
	}

	return initial, func(w *worker) bool {
		pos := cursor
		if pos >= endPos {
			return false
		}
		// Claim before blocking on the leaf read (leaf geometry is index
		// structure, host-visible without I/O), so concurrent workers never
		// double-claim.
		leaf, _ := x.LeafOf(pos)
		rem := endPos - pos
		quantum := (rem + int64(fl.max) - 1) / int64(fl.max)
		take := min((leaf+1)*int64(x.LeafCap())-pos, rem, quantum)
		cursor = pos + take
		_, ok := indexBatch(ctx, spec, w, pos, pos+take, offer)
		return ok
	}
}

// speculativeFan bounds how many of the next leaf's heap pages one leaf
// batch offers to the speculator.
const speculativeFan = 4
