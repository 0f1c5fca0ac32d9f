package exec

import (
	"testing"

	"pioqo/internal/fault"
	"pioqo/internal/obs"
	"pioqo/internal/sim"
)

func TestSortedScanAgreesWithBruteForce(t *testing.T) {
	w := newWorld(t, worldOpts{rows: 5000, rpp: 33})
	for _, rg := range []struct{ lo, hi int64 }{{0, 49}, {100, 1100}, {0, 4999}} {
		wantMax, wantFound, wantRows := w.bruteForce(rg.lo, rg.hi)
		for _, degree := range []int{1, 8} {
			res := Execute(w.ctx, w.spec(SortedIndexScan, degree, rg.lo, rg.hi))
			if res.Found != wantFound || (wantFound && res.Value != wantMax) || res.RowsMatched != wantRows {
				t.Errorf("sorted deg=%d [%d,%d]: (%d,%v,%d), want (%d,%v,%d)",
					degree, rg.lo, rg.hi, res.Value, res.Found, res.RowsMatched,
					wantMax, wantFound, wantRows)
			}
		}
	}
}

func TestSortedScanNeverRereadsHeapPages(t *testing.T) {
	// Plain IS under a tiny pool re-reads heap pages; the sorted scan
	// touches each heap page at most once regardless of pool size.
	w := newWorld(t, worldOpts{rows: 20000, rpp: 33, poolPages: 128})
	plain := Execute(w.ctx, w.spec(IndexScan, 1, 0, 15000))
	w.ctx.Pool.Flush()
	sorted := Execute(w.ctx, w.spec(SortedIndexScan, 1, 0, 15000))

	heapPages := w.tab.Pages()
	leafBudget := w.idx.Leaves() + int64(w.idx.Height())
	if plain.IO.Requests <= heapPages {
		t.Errorf("plain IS read %d pages, expected re-reads beyond %d", plain.IO.Requests, heapPages)
	}
	if sorted.IO.Requests > heapPages+leafBudget {
		t.Errorf("sorted IS read %d pages, want <= heap %d + index %d",
			sorted.IO.Requests, heapPages, leafBudget)
	}
	if sorted.Runtime >= plain.Runtime {
		t.Errorf("sorted scan (%v) not faster than thrashing plain scan (%v)",
			sorted.Runtime, plain.Runtime)
	}
	if sorted.Value != plain.Value || sorted.RowsMatched != plain.RowsMatched {
		t.Error("sorted and plain scans disagree on the answer")
	}
}

func TestSortedScanWithPrefetchAndParallelism(t *testing.T) {
	run := func(degree, prefetch int) Result {
		w := newWorld(t, worldOpts{rows: 30000, rpp: 1, poolPages: 2048})
		s := w.spec(SortedIndexScan, degree, 0, 10000)
		s.PrefetchPerWorker = prefetch
		return Execute(w.ctx, s)
	}
	serial := run(1, 0)
	parallel := run(8, 0)
	prefetched := run(1, 16)
	if float64(serial.Runtime)/float64(parallel.Runtime) < 3 {
		t.Errorf("8-way sorted scan gain = %.1fx, want >= 3x",
			float64(serial.Runtime)/float64(parallel.Runtime))
	}
	if float64(serial.Runtime)/float64(prefetched.Runtime) < 3 {
		t.Errorf("prefetch-16 sorted scan gain = %.1fx, want >= 3x",
			float64(serial.Runtime)/float64(prefetched.Runtime))
	}
	if parallel.Value != serial.Value || prefetched.Value != serial.Value {
		t.Error("answers diverge across execution strategies")
	}
}

func TestAggregatesAgreeWithBruteForce(t *testing.T) {
	w := newWorld(t, worldOpts{rows: 3000, rpp: 33})
	lo, hi := int64(100), int64(900)
	var wantMax, wantMin, wantSum, wantCount int64
	first := true
	for r := int64(0); r < w.tab.Rows(); r++ {
		row := w.tab.RowAt(r)
		if row.C2 < lo || row.C2 > hi {
			continue
		}
		if first || row.C1 > wantMax {
			wantMax = row.C1
		}
		if first || row.C1 < wantMin {
			wantMin = row.C1
		}
		wantSum += row.C1
		wantCount++
		first = false
	}
	for _, m := range []Method{FullScan, IndexScan, SortedIndexScan} {
		cases := []struct {
			agg  AggKind
			want int64
		}{
			{AggMax, wantMax}, {AggMin, wantMin}, {AggSum, wantSum}, {AggCount, wantCount},
		}
		for _, c := range cases {
			s := w.spec(m, 4, lo, hi)
			s.Agg = c.agg
			res := Execute(w.ctx, s)
			if !res.Found || res.Value != c.want {
				t.Errorf("%v %v = (%d, %v), want %d", m, c.agg, res.Value, res.Found, c.want)
			}
		}
	}
}

func TestCountOfEmptyRangeIsZeroNotNull(t *testing.T) {
	w := newWorld(t, worldOpts{rows: 1000, rpp: 33})
	for _, m := range []Method{FullScan, IndexScan, SortedIndexScan} {
		s := w.spec(m, 2, 600, 599) // empty range
		s.Agg = AggCount
		res := Execute(w.ctx, s)
		if !res.Found || res.Value != 0 {
			t.Errorf("%v COUNT(empty) = (%d, %v), want (0, true)", m, res.Value, res.Found)
		}
		s.Agg = AggMax
		res = Execute(w.ctx, s)
		if res.Found {
			t.Errorf("%v MAX(empty) found, want NULL", m)
		}
	}
}

func TestSortedScanPrefetchClampedToTinyPool(t *testing.T) {
	// Deep prefetch times many workers must not exhaust a small pool: the
	// scan clamps its window rather than panicking on frame exhaustion.
	w := newWorld(t, worldOpts{rows: 20000, rpp: 1, poolPages: 96})
	_, _, wantRows := w.bruteForce(0, 8000)
	s := w.spec(SortedIndexScan, 16, 0, 8000)
	s.PrefetchPerWorker = 32
	res := Execute(w.ctx, s)
	if res.RowsMatched != wantRows {
		t.Errorf("matched %d rows, want %d", res.RowsMatched, wantRows)
	}
}

func TestSortedScanQueueDepthTracksDegree(t *testing.T) {
	w := newWorld(t, worldOpts{rows: 60000, rpp: 1, poolPages: 512})
	res := Execute(w.ctx, w.spec(SortedIndexScan, 8, 0, 20000))
	if qd := res.IO.AvgQueueDepth; qd < 4 || qd > 12 {
		t.Errorf("sorted scan degree 8: avg queue depth %.1f, want ~8", qd)
	}
}

// countingGov is a Governor that tracks the live worker count the way a
// broker lease does, and how often that count fell back to zero.
type countingGov struct {
	starts, ends, live, zeros int
}

func (g *countingGov) StartWorker() { g.starts++; g.live++ }
func (g *countingGov) EndWorker() {
	g.ends++
	if g.live--; g.live == 0 {
		g.zeros++
	}
}

// workerEvents counts the worker.start and worker.exit events in log.
func workerEvents(log *obs.EventLog) (starts, exits int) {
	for _, e := range log.Events() {
		switch e.Type {
		case obs.EvWorkerStart:
			starts++
		case obs.EvWorkerExit:
			exits++
		}
	}
	return
}

// A broker lease sheds credits as the workers it was told about exit, and
// re-leases the whole grant once none are left. The sorted scan's fleet must
// therefore stay reported across its phase barrier: a slot that carries on
// into the fetch phase is one lifetime, not two, and the governor's live
// count reaches zero exactly once — when the scan is over.
func TestSortedScanKeepsLeaseAcrossPhaseBarrier(t *testing.T) {
	for _, tc := range []struct {
		name   string
		lo, hi func(w *world) int64
		abort  bool
	}{
		{name: "wide", lo: func(*world) int64 { return 100 }, hi: func(*world) int64 { return 2099 }},
		// Three entries for eight slots: five slots sit out the collect phase
		// and start their lifetime in the fetch phase.
		{name: "narrow",
			lo: func(w *world) int64 { return w.idx.LeafEntries(3, nil)[5].Key },
			hi: func(w *world) int64 { return w.idx.LeafEntries(3, nil)[7].Key }},
		// An abort in the collect phase never starts the fetch phase, and the
		// held lifetimes still end.
		{name: "abort-at-barrier", abort: true,
			lo: func(*world) int64 { return 100 }, hi: func(*world) int64 { return 2099 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const degree = 8
			w := newWorld(t, worldOpts{rows: 20000, rpp: 33})
			w.ctx.Obs = obs.NewRegistry(w.env)
			w.ctx.Obs.EnableEvents(0)
			gov := &countingGov{}
			s := w.spec(SortedIndexScan, degree, tc.lo(w), tc.hi(w))
			s.Gov = gov
			if tc.abort {
				s.Ctl = fault.NewControl(w.env)
				s.Ctl.SetDeadline(w.env.Now().Add(200 * sim.Microsecond))
			}
			res := Execute(w.ctx, s)
			if tc.abort != (res.Err != nil) {
				t.Fatalf("Err = %v, abort = %v", res.Err, tc.abort)
			}
			if gov.starts != gov.ends || gov.live != 0 {
				t.Errorf("governor saw %d starts and %d ends", gov.starts, gov.ends)
			}
			if gov.zeros != 1 {
				t.Errorf("governor's live count reached zero %d times, want once, at the end of the scan", gov.zeros)
			}
			if !tc.abort && gov.starts != degree {
				t.Errorf("governor saw %d worker lifetimes, want one per slot (%d)", gov.starts, degree)
			}
			starts, exits := workerEvents(w.ctx.Obs.Log())
			if starts != gov.starts || exits != gov.ends {
				t.Errorf("event log has %d worker.start and %d worker.exit, governor saw %d and %d",
					starts, exits, gov.starts, gov.ends)
			}
		})
	}
}
