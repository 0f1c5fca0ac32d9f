package exec

import (
	"pioqo/internal/sim"
	"pioqo/internal/table"
)

// indexFront is what every index-driven driver does before its workers
// start: clamp the per-worker prefetch so in-flight prefetched frames plus
// worker pins can never exhaust the pool (or the lease's share of it) at
// the fleet's growth cap, descend from the root on the driver, and locate
// the qualifying entry range [startPos, endPos), which may be empty. It
// reports false when the query aborted on the way down.
func indexFront(p *sim.Proc, ctx *Context, spec *Spec, maxDegree int) (startPos, endPos int64, ok bool) {
	if spec.PrefetchPerWorker > 0 {
		if budget := spec.poolCapacity(ctx)/2/maxDegree - 1; spec.PrefetchPerWorker > budget {
			spec.PrefetchPerWorker = budget
			if spec.PrefetchPerWorker < 0 {
				spec.PrefetchPerWorker = 0
			}
		}
	}

	// Internal pages are read through the pool and are typically resident
	// after the first query. The descent runs on the driver, so its retries
	// go through a throwaway budget.
	x := spec.Index
	dbud := &cpuBudget{ctx: ctx}
	for _, pg := range x.DescentPath() {
		if spec.aborted() {
			return 0, 0, false
		}
		h, ok := dbud.fetchRetry(p, spec, x.File(), pg)
		if !ok {
			return 0, 0, false
		}
		useCPU(p, ctx, ctx.Costs.PerPage)
		h.Release()
	}
	return x.SearchGE(spec.Lo), x.SearchGT(spec.Hi), true
}

// indexBatch is the one index-leaf walk: read the leaf holding entry
// position pos, take its entries up to position hi, and fetch each
// referenced heap row (the §3.3 I/O batch: a leaf read plus the bounded
// prefetch-and-fetch of its table pages). It reports how many entries it
// consumed, and false when a read failed and the worker must wind down.
//
// offer, when set, is called between the leaf read and the heap fan with
// the leaf number and the position its successor starts at — where the
// adaptive scan hands the next leaf to the speculator.
func indexBatch(ctx *Context, spec *Spec, w *worker, pos, hi int64,
	offer func(leaf, nextStart int64)) (int, bool) {
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
	if offer != nil {
		offer(leaf, (leaf+1)*int64(x.LeafCap()))
	}

	prefetched := 0
	for i, e := range matches {
		// Keep up to PrefetchPerWorker table pages in flight, clamped at
		// this leaf's last reference (never across the leaf boundary, per
		// §3.3). Issuing an asynchronous read costs CPU — the reason the
		// paper finds one worker prefetching n does not quite match n
		// workers.
		for prefetched < i+spec.PrefetchPerWorker && prefetched < len(matches) {
			bud.prefetch(w.p, t.File(), table.PageOf(matches[prefetched].Row, rpp))
			prefetched++
		}
		th, ok := bud.fetchRetry(w.p, spec, t.File(), table.PageOf(e.Row, rpp))
		if !ok {
			return 0, false
		}
		bud.charge(ctx.Costs.PerRowFetch)
		row := t.RowAt(e.Row)
		if row.C2 >= spec.Lo && row.C2 <= spec.Hi {
			spec.deliver(w.a, th, e.Row, row)
		}
		th.Release()
	}
	// The leaf batch is the settle quantum — without it a fully warm scan
	// would defer the whole range into one giant Use.
	bud.settle(w.p)
	return take, true
}

// chunkSteps splits [startPos, endPos) into spec.Degree contiguous chunks,
// one per worker, and returns how many of them are non-empty — workers whose
// chunk would be empty are never spawned — with the step that walks a
// worker's chunk one indexBatch at a time.
func chunkSteps(ctx *Context, spec *Spec, startPos, endPos int64) (int, func(w *worker) bool) {
	total := endPos - startPos
	chunk := (total + int64(spec.Degree) - 1) / int64(spec.Degree)
	n := int((total + chunk - 1) / chunk)
	next := make([]int64, n) // next unread position of each worker's chunk
	for i := range next {
		next[i] = startPos + int64(i)*chunk
	}
	return n, func(w *worker) bool {
		hi := min(startPos+int64(w.id+1)*chunk, endPos)
		if next[w.id] >= hi {
			return false
		}
		take, ok := indexBatch(ctx, spec, w, next[w.id], hi, nil)
		next[w.id] += int64(take)
		return ok
	}
}

// runIndexScan implements IS/PIS: one descent from the root locates the
// qualifying entry range, and each worker walks its share of it leaf by
// leaf: it reads the leaf page, optionally prefetches up to
// PrefetchPerWorker of the referenced table pages ahead, and fetches each
// row's page to evaluate it.
//
// A static scan splits the range into Degree contiguous sub-ranges. At the
// paper's scale (qualifying leaves ≫ workers) entry-range splitting behaves
// exactly like the paper's leaf-at-a-time distribution; at reduced scale it
// additionally parallelizes ranges narrower than a worker-count of leaves,
// with the effective parallelism still capped by the matching-row count —
// the paper's noted exception for very selective queries. A tuned scan
// claims from a shared cursor instead (guidedSteps), so a fleet that grows
// or shrinks mid-flight stays load-balanced without rechunking.
func runIndexScan(p *sim.Proc, ctx *Context, spec Spec) Result {
	spec.admitDeep(p)
	fl := newFleet(ctx, &spec)
	startPos, endPos, ok := indexFront(p, ctx, &spec, fl.max)
	if !ok || startPos >= endPos {
		return fl.result()
	}
	var n int
	var step func(w *worker) bool
	if spec.Tune != nil {
		n, step = guidedSteps(ctx, &spec, fl, startPos, endPos)
	} else {
		n, step = chunkSteps(ctx, &spec, startPos, endPos)
	}
	fl.run(p, "pis-w", n, step)
	return fl.result()
}
