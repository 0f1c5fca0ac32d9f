// The shared full-scan consumer path: instead of demand-fetching heap
// pages, the scan attaches to its table's circulating producer
// (buffer.Shares) and consumes pushed page batches — one full lap, every
// page exactly once, starting wherever the producer happens to be. The
// producer owns all device interaction and pinning; this file must not
// demand-fetch (the shared-consumer row of the root boundaries_test.go
// rejects fetch and prefetch calls here), so the consumer is pure CPU:
// evaluate rows, account batch CPU exactly like the demand path, report
// progress per delivered page. The page evaluator both paths share lives
// here for that reason — the row then proves the rider's per-page work
// cannot reach the pool.
package exec

import (
	"fmt"

	"pioqo/internal/buffer"
	"pioqo/internal/sim"
	"pioqo/internal/table"
)

// evalPage evaluates every row of one heap page: it charges PerPage plus
// PerRow per row into bud — the simulated engine tests every row, whether or
// not it matches — and delivers the matching rows to a (or to the spec's
// hooks, which mark the pinned page h), charging EmitCost per match. The
// caller fetched the page — or was handed it by a circulating producer, and
// then passes no handle — and settles the budget at its own quantum. buf is
// scratch, returned for reuse.
func evalPage(ctx *Context, spec *Spec, bud *cpuBudget, a *agg, h buffer.Handle, page int64, buf []table.Match) []table.Match {
	t := spec.Table
	rpp := int64(t.RowsPerPage())
	firstRow := page * rpp
	lastRow := min(firstRow+rpp, t.Rows())
	bud.charge(ctx.Costs.PerPage + sim.Duration(lastRow-firstRow)*ctx.Costs.PerRow)
	buf = t.MatchesAt(firstRow, lastRow, spec.Lo, spec.Hi, buf)
	bud.charge(sim.Duration(len(buf)) * spec.EmitCost)
	spec.deliverPage(a, h, buf)
	return buf
}

// sharable reports whether this spec can ride a circulating scan: a plain
// aggregate full scan with no row hooks (Emit delivers rows in claim
// order and Update needs the pinned handle — both are demand-path only).
func (s *Spec) sharable(ctx *Context) bool {
	return s.Shared && ctx.Shares != nil && s.Method == FullScan &&
		s.Emit == nil && s.Update == nil
}

// runSharedFullScan consumes one lap of the table's circulating scan.
// CPU accounting is the demand path's, unchanged: PerPage plus PerRow per
// row charged into the budget, settled at page granularity — the consumer
// differs only in who moves the bytes.
func runSharedFullScan(p *sim.Proc, ctx *Context, spec Spec) Result {
	t := spec.Table

	spec.startWorker(ctx, 0)
	defer spec.endWorker(ctx, 0)
	a := agg{kind: spec.Agg}
	bud := newBudget(ctx, &spec, "fts-shared")
	defer func() { bud.finish(a.rows) }()
	defer bud.settle(p)

	cons := ctx.Shares.Attach(spec.QID, t.File(), t.Pages())
	defer cons.Detach()
	var matchBuf []table.Match
	for {
		if spec.aborted() {
			return a.result()
		}
		t0 := ctx.Env.Now()
		run, ok, err := cons.Next(p)
		bud.io += sim.Duration(ctx.Env.Now() - t0)
		if err != nil {
			// A device fault that survived the producer's retries. The
			// consumer winds down like a demand worker whose fetchRetry
			// exhausted: cancel the control and let RunScan report it.
			if spec.Ctl == nil {
				panic(fmt.Sprintf("exec: shared scan of %v failed: %v", t.File().ID(), err))
			}
			spec.Ctl.Cancel(err)
			return a.result()
		}
		if !ok {
			return a.result()
		}
		for i := 0; i < run.Count; i++ {
			if spec.aborted() {
				return a.result()
			}
			// A sharable spec has no row hooks, so no pinned handle is needed.
			matchBuf = evalPage(ctx, &spec, &bud, &a, buffer.Handle{}, run.Start+int64(i), matchBuf)
			bud.pages++
			if spec.Progress != nil {
				// Pages delivered to *this* consumer — not the producer's
				// position, which serves every attached query at once.
				*spec.Progress++
			}
			// One page is the batch quantum, as on the demand path.
			bud.settle(p)
		}
		cons.Consumed()
	}
}
