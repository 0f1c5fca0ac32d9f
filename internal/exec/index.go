package exec

import (
	"pioqo/internal/btree"
	"pioqo/internal/disk"
	"pioqo/internal/sim"
	"pioqo/internal/table"
)

// indexFront is what every index-driven driver does before its workers
// start: clamp the per-worker prefetch so in-flight prefetched frames plus
// worker pins can never exhaust the pool (or the lease's share of it),
// descend from the root on the driver, and locate the qualifying entry
// range [startPos, endPos), which may be empty. A range over more than one
// leaf then has its leaves read ahead (leafRun). It reports false when the
// query aborted on the way down. The descent is measured in d, whose span
// ends with it; the caller annotates d once its workers are done, when the
// query's gate is settled.
func indexFront(p *sim.Proc, ctx *Context, spec *Spec, d *cpuBudget) (startPos, endPos int64, ok bool) {
	if spec.PrefetchPerWorker > 0 {
		if budget := spec.poolCapacity(ctx)/2/spec.Degree - 1; spec.PrefetchPerWorker > budget {
			spec.PrefetchPerWorker = budget
			if spec.PrefetchPerWorker < 0 {
				spec.PrefetchPerWorker = 0
			}
		}
	}

	// Internal pages are read through the pool and are typically resident
	// after the first query. The descent runs on the driver, under a span of
	// its own: its pages, CPU and the time its misses wait — on the device,
	// on another query's read, or parked at the query's gate — show there.
	x := spec.Index
	defer d.span.End()
	for _, pg := range x.DescentPath() {
		if spec.aborted() {
			return 0, 0, false
		}
		h, ok := d.fetchRetry(p, spec, x.File(), pg)
		if !ok {
			return 0, 0, false
		}
		d.charge(ctx.Costs.PerPage)
		d.settle(p)
		h.Release()
	}
	startPos, endPos = x.SearchGE(spec.Lo), x.SearchGT(spec.Hi)
	leafRun(p, ctx, spec, d, startPos, endPos)
	return startPos, endPos, true
}

// leafRun reads the leaves of [startPos, endPos) with one block read of up
// to disk.BlockPages pages, issued from the driver once the descent is done.
// Leaves sit consecutively in the index file, so the run costs about one
// random read where the workers would otherwise read each leaf on its own —
// and wait for it: every worker that claims a new leaf's entries waits on
// that leaf's one read. A range inside one leaf gains nothing, and a query
// still waiting for its grant reads nothing ahead; a granted one passes its
// gate here, without yielding. The run is clamped to a quarter of the pool,
// beside the workers' prefetch windows (at most half).
func leafRun(p *sim.Proc, ctx *Context, spec *Spec, d *cpuBudget, startPos, endPos int64) {
	if startPos >= endPos || (spec.Gov != nil && !spec.Gov.Admitted()) || spec.aborted() {
		return
	}
	x := spec.Index
	first, _ := x.LeafOf(startPos)
	last, _ := x.LeafOf(endPos - 1)
	if n := min(last-first+1, disk.BlockPages, int64(spec.poolCapacity(ctx)/4)); n > 1 {
		spec.admit(p)
		d.charge(ctx.Costs.PerPrefetch)
		d.settle(p)
		ctx.Pool.PrefetchRun(x.File(), x.LeafPage(first), int(n))
	}
}

// newDescent returns the budget an index descent is measured in, with its
// span on the driver's track.
func newDescent(ctx *Context, spec *Spec) cpuBudget {
	return cpuBudget{ctx: ctx, gov: spec.Gov, span: ctx.Tracer.Start(spec.Span, "descent")}
}

// indexBatch is the one index-leaf walk: read the leaf holding entry
// position pos, take its entries up to position hi, and fetch each
// referenced heap row (the §3.3 I/O batch: a leaf read plus the bounded
// prefetch-and-fetch of its table pages). It reports how many entries it
// consumed, and false when a read failed and the worker must wind down.
func indexBatch(ctx *Context, spec *Spec, w *worker, pos, hi int64) (int, bool) {
	t, x := spec.Table, spec.Index
	rpp := t.RowsPerPage()
	bud := &w.bud

	leaf, slot := x.LeafOf(pos)
	lh, ok := bud.fetchRetry(w.p, spec, x.File(), x.LeafPage(leaf))
	if !ok {
		return 0, false
	}
	// hi never passes the last entry, so the leaf's capacity bounds the take
	// even on a short last leaf.
	take := int(min(int64(x.LeafCap()-slot), hi-pos))
	// Only the entries taken are copied. They are only rewritten by the
	// worker's next batch, so the fetch loop below reads the slice in place.
	w.entries = x.EntriesAt(pos, take, w.entries)
	matches := w.entries
	bud.charge(ctx.Costs.PerPage + sim.Duration(take)*ctx.Costs.PerEntry)
	lh.Release()

	prefetched, pf := 0, spec.PrefetchPerWorker
	for i := range matches {
		// Keep up to PrefetchPerWorker table pages in flight, clamped at
		// this leaf's last reference (never across the leaf boundary, per
		// §3.3). Issuing an asynchronous read costs CPU — the reason the
		// paper finds one worker prefetching n does not quite match n
		// workers.
		for prefetched < i+pf && prefetched < len(matches) {
			bud.prefetch(w.p, t.File(), table.PageOf(matches[prefetched].Row, rpp), w.reads())
			prefetched++
		}
		// Evaluate whichever entry of the window has landed first, so the
		// window's reads stay in flight however the device orders them.
		if pf > 0 {
			j := i + w.landed(ctx, spec, matches[i:prefetched])
			matches[i], matches[j] = matches[j], matches[i]
		}
		e := matches[i]
		th, ok := bud.fetchRetry(w.p, spec, t.File(), table.PageOf(e.Row, rpp))
		if !ok {
			w.windDown()
			return 0, false
		}
		bud.charge(ctx.Costs.PerRowFetch)
		row := t.RowAt(e.Row)
		if row.C2 >= spec.Lo && row.C2 <= spec.Hi {
			bud.charge(spec.EmitCost)
			spec.deliver(w.a, th, e.Row, row)
		}
		th.Release()
	}
	w.windDown()
	// The leaf batch is the settle quantum — without it a fully warm scan
	// would defer the whole range into one giant Use.
	bud.settle(w.p)
	return take, true
}

// reads is the set of the worker's prefetches in flight, kept across
// batches and fleets with the worker record.
func (w *worker) reads() *sim.Any {
	if w.inFlight == nil {
		w.inFlight = new(sim.Any)
	}
	return w.inFlight
}

// landed returns the index in window of the first entry whose page has
// landed, waiting — as I/O wait, its CPU debt settled first — for one of
// the worker's prefetches to land while none has. With none in flight it
// returns 0, whose fetch then reads the page or joins another's read.
func (w *worker) landed(ctx *Context, spec *Spec, window []btree.Entry) int {
	t, rpp := spec.Table, spec.Table.RowsPerPage()
	for {
		for j, e := range window {
			if ctx.Pool.Loaded(t.File(), table.PageOf(e.Row, rpp)) {
				return j
			}
		}
		if w.inFlight == nil || w.inFlight.Pending() == 0 {
			return 0
		}
		if w.bud.debt > 0 {
			w.bud.settle(w.p) // a read may land meanwhile: look again
			continue
		}
		t0 := ctx.Env.Now()
		w.p.WaitAny(w.inFlight)
		w.bud.blocked(t0)
	}
}

// windDown empties the worker's prefetch set for its next batch, dropping
// the landings it did not wait for. None of the set's reads is still in
// flight: the worker evaluates an entry only with its page landed, and
// reads a page itself only while none of its prefetches is in flight — so
// a worker that stops mid-window on a failed read leaves no read to count
// into the set a later fleet takes with the record (Reset panics if one
// would).
func (w *worker) windDown() {
	if w.inFlight != nil {
		w.inFlight.Reset()
	}
}

// claimSteps hands [startPos, endPos) out from one cursor: each step claims
// the next ⌈remaining ÷ (2·Degree − 1)⌉ entries (guided self-scheduling),
// clamped to the current leaf, before it reads them, so no two workers take
// the same entries and every worker keeps a read outstanding until the
// range runs out — but where the workers that claim a new leaf's entries
// wait on its one read, if leafRun did not read it ahead. A prefetching worker's claim never shrinks below
// its window of PrefetchPerWorker entries, which it could not otherwise
// fill. A lone worker claims to its leaf's end, one indexBatch a leaf. It
// returns how many workers to spawn — never more than there are entries —
// with the step; the claim is the abort quantum.
func claimSteps(ctx *Context, spec *Spec, startPos, endPos int64) (int, func(w *worker) bool) {
	next, split, window := startPos, int64(2*spec.Degree-1), int64(spec.PrefetchPerWorker)
	return int(min(int64(spec.Degree), endPos-startPos)), func(w *worker) bool {
		pos := next
		if pos >= endPos {
			return false
		}
		_, slot := spec.Index.LeafOf(pos)
		claim := max((endPos-pos+split-1)/split, window)
		hi := min(pos+claim, endPos, pos+int64(spec.Index.LeafCap()-slot))
		next = hi
		_, ok := indexBatch(ctx, spec, w, pos, hi)
		return ok
	}
}

// runIndexScan implements IS/PIS: one descent from the root locates the
// qualifying entry range, and the workers claim it from one cursor
// (claimSteps), a leaf or less at a time: each claim reads its leaf page,
// optionally prefetches up to PrefetchPerWorker of the referenced table
// pages ahead, and fetches each row's page to evaluate it.
//
// The paper hands qualifying leaves to workers one at a time (§3). Claims
// shrink as the range runs out, so the fleet keeps its depth until its last
// reads instead of thinning as per-worker chunks finish unevenly. On ranges
// narrower than a worker-count of leaves claims split leaves, with the
// effective parallelism still capped by the matching-row count — the
// paper's noted exception for very selective queries.
func runIndexScan(p *sim.Proc, ctx *Context, spec Spec) Result {
	spec.admitDeep(p)
	fl := newFleet(ctx, &spec)
	d := newDescent(ctx, &spec)
	defer d.annotate(0)
	startPos, endPos, ok := indexFront(p, ctx, &spec, &d)
	if !ok || startPos >= endPos {
		return fl.result()
	}
	n, step := claimSteps(ctx, &spec, startPos, endPos)
	fl.run(p, "pis-w", n, step)
	return fl.result()
}
