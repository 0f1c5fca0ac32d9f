package exec

import (
	"fmt"
	"testing"

	"pioqo/internal/buffer"
	"pioqo/internal/fault"
	"pioqo/internal/sim"
	"pioqo/internal/table"
)

// withShares installs a scan-share registry on the world's context.
func (w *world) withShares() *buffer.Shares {
	sh := buffer.NewShares(w.env, w.ctx.Pool, buffer.ShareConfig{})
	w.ctx.Shares = sh
	return sh
}

func TestSharedScanMatchesDemandScan(t *testing.T) {
	w := newWorld(t, worldOpts{rows: 8000, rpp: 33, poolPages: 512})
	w.withShares()
	ranges := []struct{ lo, hi int64 }{{0, 7999}, {100, 5100}, {0, 49}}
	for _, rg := range ranges {
		demand := w.spec(FullScan, 1, rg.lo, rg.hi)
		want := Execute(w.ctx, demand)

		w.ctx.Pool.Flush()
		shared := w.spec(FullScan, 1, rg.lo, rg.hi)
		shared.Shared = true
		got := Execute(w.ctx, shared)

		if got.Value != want.Value || got.Found != want.Found || got.RowsMatched != want.RowsMatched {
			t.Errorf("range [%d,%d]: shared=(%d,%v,%d rows), demand=(%d,%v,%d rows)",
				rg.lo, rg.hi, got.Value, got.Found, got.RowsMatched,
				want.Value, want.Found, want.RowsMatched)
		}
		if n := w.ctx.Pool.Pinned(); n != 0 {
			t.Errorf("range [%d,%d]: %d pages pinned after shared scan", rg.lo, rg.hi, n)
		}
		if n := w.ctx.Shares.Live(); n != 0 {
			t.Errorf("range [%d,%d]: %d consumers still attached", rg.lo, rg.hi, n)
		}
	}
}

// TestSharedScanAmortizesDeviceWork is the subsystem's reason to exist: k
// concurrent full scans of one table must cost the device about one
// circulation, not k independent reads of every heap page.
func TestSharedScanAmortizesDeviceWork(t *testing.T) {
	const k = 8
	w := newWorld(t, worldOpts{rows: 33 * 2048, rpp: 33, poolPages: 512})
	w.withShares()

	wantMax, wantFound, wantRows := w.bruteForce(0, w.tab.Rows()-1)
	w.ctx.Dev.Metrics().Reset()
	results := make([]Result, k)
	for i := 0; i < k; i++ {
		i := i
		w.env.Go(fmt.Sprintf("q%d", i), func(p *sim.Proc) {
			s := w.spec(FullScan, 1, 0, w.tab.Rows()-1)
			s.Shared = true
			s.QID = int64(i)
			results[i] = RunScan(p, w.ctx, s)
		})
	}
	w.env.Run()

	for i, res := range results {
		if !wantFound || res.Value != wantMax || res.RowsMatched != wantRows || res.Err != nil {
			t.Errorf("scan %d: got (max=%d rows=%d err=%v), want (max=%d rows=%d)",
				i, res.Value, res.RowsMatched, res.Err, wantMax, wantRows)
		}
	}
	pages := w.tab.Pages()
	moved := w.ctx.Dev.Metrics().Snapshot().Bytes / 4096 // device pages transferred
	if moved < pages {
		t.Errorf("device moved %d pages, table has %d — scans read less than one circulation?", moved, pages)
	}
	// All k riders overlap from the first instant, so they share one lap
	// plus bounded slack (readahead re-issue after evictions). Demand
	// scans would move ~k×pages.
	if limit := pages * 2; moved > limit {
		t.Errorf("device moved %d pages for %d shared scans of a %d-page table; want ≤ %d (≈one circulation)",
			moved, k, pages, limit)
	}
	if n := w.ctx.Pool.Pinned(); n != 0 {
		t.Errorf("%d pages pinned after all scans", n)
	}
}

func TestSharedScanAbortWindsDownCleanly(t *testing.T) {
	w := newWorld(t, worldOpts{rows: 33 * 2048, rpp: 33, poolPages: 512})
	w.withShares()
	ctl := fault.NewControl(w.env)
	ctl.SetDeadline(w.env.Now().Add(2 * sim.Millisecond))
	s := w.spec(FullScan, 1, 0, w.tab.Rows()-1)
	s.Shared = true
	s.Ctl = ctl
	res := Execute(w.ctx, s)
	if res.Err == nil {
		t.Fatal("deadline-armed shared scan completed without error")
	}
	if n := w.ctx.Pool.Pinned(); n != 0 {
		t.Errorf("%d pages pinned after aborted shared scan", n)
	}
	if n := w.ctx.Shares.Live(); n != 0 {
		t.Errorf("%d consumers still attached after abort", n)
	}
	if n := w.env.LiveProcs(); n != 0 {
		t.Errorf("%d sim processes still live after abort", n)
	}
}

// TestSharedScanProgressCountsOwnDelivery pins the Submission.Progress
// contract: the counter tracks pages delivered to this consumer, ending at
// exactly the table's page count even for a mid-lap join.
func TestSharedScanProgressCountsOwnDelivery(t *testing.T) {
	w := newWorld(t, worldOpts{rows: 8000, rpp: 33, poolPages: 512})
	w.withShares()
	var early, late int64
	w.env.Go("early", func(p *sim.Proc) {
		s := w.spec(FullScan, 1, 0, 7999)
		s.Shared = true
		s.Progress = &early
		RunScan(p, w.ctx, s)
	})
	w.env.Go("late", func(p *sim.Proc) {
		p.Sleep(1 * sim.Millisecond) // join the circulation mid-lap
		s := w.spec(FullScan, 1, 0, 7999)
		s.Shared = true
		s.QID = 2
		s.Progress = &late
		RunScan(p, w.ctx, s)
	})
	w.env.Run()
	if pages := w.tab.Pages(); early != pages || late != pages {
		t.Errorf("progress early=%d late=%d, want both exactly %d (pages delivered to each consumer)",
			early, late, pages)
	}
}

// TestEvalPageDoesNotAllocate is the allocation gate on the page evaluator:
// a page without a match costs no allocation, and a page with matches costs
// none once the scratch buffer has grown to a page's worth — whether every
// row matches or, under a selective range, which the synthetic table answers
// from its displacement table instead of its rows, a few.
func TestEvalPageDoesNotAllocate(t *testing.T) {
	ctx, syn, _ := benchWorld(50_000, 500, 64)
	mat := newWorld(t, worldOpts{rows: 5000, rpp: 500}).tab
	for name, tab := range map[string]table.Table{"synthetic": syn, "materialized": mat} {
		bud := &cpuBudget{ctx: ctx}
		a := agg{kind: AggMax}
		var buf []table.Match
		eval := func(spec Spec) func() {
			return func() { buf = evalPage(ctx, &spec, bud, &a, buffer.Handle{}, 3, buf) }
		}
		if n := testing.AllocsPerRun(20, eval(Spec{Table: tab, Lo: -10, Hi: -1})); n != 0 || a.rows != 0 {
			t.Errorf("%s: page without a match: %v allocations, %d rows", name, n, a.rows)
		}
		// AllocsPerRun's warm-up call grows the buffer.
		if n := testing.AllocsPerRun(20, eval(Spec{Table: tab, Lo: 0, Hi: tab.KeyDomain()})); n != 0 || a.rows == 0 {
			t.Errorf("%s: page full of matches: %v allocations, %d rows", name, n, a.rows)
		}
		full := a.rows
		if n := testing.AllocsPerRun(20, eval(Spec{Table: tab, Lo: 0, Hi: tab.KeyDomain() / 100})); n != 0 || a.rows == full {
			t.Errorf("%s: page under a selective range: %v allocations, %d rows", name, n, a.rows-full)
		}
	}
}

// TestWorkerScratchIsReused is the allocation gate on the fleet: with the
// node's Scratch on the context, a worker of a warm scan — no device read,
// so nothing below the executor allocates — costs its process and its name
// and nothing that outlives it: not its record, its budget, or the leaf-entry
// and page-match buffers, which the node's earlier workers already grew.
func TestWorkerScratchIsReused(t *testing.T) {
	w := newWorld(t, worldOpts{rows: 20_000, rpp: 33})
	w.ctx.Scratch = &Scratch{}
	perScan := func(m Method, degree int) float64 {
		spec := w.spec(m, degree, 0, 1999)
		return testing.AllocsPerRun(5, func() { Execute(w.ctx, spec) })
	}
	// Six today: the name, the process and its goroutine, the closures that
	// start it (a fraction more under the race detector). Without the free
	// list the two read 8 and 11.
	for _, c := range []struct {
		m      Method
		degree int
		limit  float64
	}{{IndexScan, 32, 7}, {FullScan, 8, 7}} {
		perWorker := (perScan(c.m, c.degree) - perScan(c.m, 1)) / float64(c.degree-1)
		if perWorker > c.limit {
			t.Errorf("%v: %.1f allocations per added worker, want at most %.1f", c.m, perWorker, c.limit)
		}
	}
}
