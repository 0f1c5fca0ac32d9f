package exec

import (
	"sort"

	"pioqo/internal/btree"
	"pioqo/internal/sim"
	"pioqo/internal/table"
)

// runSortedIndexScan implements the sorted index scan extension: phase one
// walks the qualifying index leaves (split over the workers like a PIS) and
// collects the matching entries; the driver then sorts them by heap page;
// phase two has the workers fetch each distinct heap page exactly once, in
// ascending page order, evaluating all of that page's matches together.
//
// Compared to a plain index scan this trades a sort (and loss of key
// order) for never re-reading a heap page — the paper's §3.1 notes it "can
// be the optimal choice in a particular selectivity range". The ascending
// fetch order also shortens seeks on spinning media.
func runSortedIndexScan(p *sim.Proc, ctx *Context, spec Spec) Result {
	t := spec.Table
	rpp := t.RowsPerPage()

	// The chunked collect and the page-group fetch both assume a fixed fleet.
	spec.Tune = nil
	fl := newFleet(ctx, &spec)
	startPos, endPos, ok := indexFront(p, ctx, &spec, fl.max)
	if !ok || startPos >= endPos {
		return fl.result()
	}

	// Phase one: collect matching entries, one contiguous entry sub-range
	// per worker. The collect workers' slots stay reported live across the
	// barrier — the fetch phase below reuses them.
	collected := make([][]btree.Entry, spec.Degree)
	n, collect := chunkSteps(ctx, &spec, startPos, endPos, collected)
	fl.hold = true
	fl.run(p, "sis-collect", n, collect)
	// The phase boundary is a natural abort point: an aborted collect phase
	// never starts the fetch phase.
	if spec.aborted() {
		fl.release()
		return Result{}
	}

	// Sort the row-id list by heap page (the "additional sorting stage"). A
	// heap page holds a contiguous row-id range, so row order is page order.
	var entries []btree.Entry
	for _, c := range collected {
		entries = append(entries, c...)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Row < entries[j].Row })
	useCPU(p, ctx, 2*sim.Duration(len(entries))*ctx.Costs.PerEntry)

	// Phase two: consume page groups in ascending order; each worker grabs
	// the next distinct page's group, prefetching upcoming groups' pages.
	// The collect phase's threads carry on, so no second startup is charged.
	nextIdx := 0
	pageAt := func(i int) int64 { return table.PageOf(entries[i].Row, rpp) }
	groupEnd := func(i int) int { // end of the page group starting at entry i
		j := i + 1
		for j < len(entries) && pageAt(j) == pageAt(i) {
			j++
		}
		return j
	}
	fl.hold, fl.startup = false, 0
	fl.run(p, "sis-fetch", spec.Degree, func(w *worker) bool {
		i := nextIdx
		if i >= len(entries) {
			return false
		}
		j := groupEnd(i)
		nextIdx = j

		// Prefetch the pages of the next PrefetchPerWorker groups — a
		// sliding window over *positions*, so outstanding prefetched pages
		// stay bounded and are consumed before the pool would evict them.
		for covered, k := 0, j; covered < spec.PrefetchPerWorker && k < len(entries); covered, k = covered+1, groupEnd(k) {
			w.bud.prefetch(w.p, t.File(), pageAt(k))
		}

		// One page group is one CPU batch: every entry here lives on the
		// pinned page, so the per-entry fetch costs merge into a single
		// settle at the next device interaction.
		th, ok := w.bud.fetchRetry(w.p, &spec, t.File(), pageAt(i))
		if !ok {
			return false
		}
		w.bud.charge(sim.Duration(j-i) * ctx.Costs.PerRowFetch)
		for _, e := range entries[i:j] {
			row := t.RowAt(e.Row)
			if row.C2 >= spec.Lo && row.C2 <= spec.Hi {
				spec.deliver(w.a, th, e.Row, row)
			}
		}
		w.bud.settle(w.p)
		th.Release()
		return true
	})
	return fl.result()
}
