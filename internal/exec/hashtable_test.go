package exec

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"pioqo/internal/buffer"
	"pioqo/internal/fault"
	"pioqo/internal/reference"
	"pioqo/internal/sim"
)

// allocated returns the bytes the host allocated while fn ran.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// checkJoin holds a MAX hash join's answer over [lo, hi] to the reference.
func checkJoin(t *testing.T, w *joinWorld, name string, res JoinResult, lo, hi int64) {
	t.Helper()
	want := reference.Join(w.build, w.probe, lo, hi)
	if res.Err != nil || res.Pairs != want.Rows || res.Found != want.Found() || (want.Found() && res.Value != want.Max) {
		t.Errorf("%s: err %v, %d pairs, max (%d,%v); want %d pairs, max (%d,%v)",
			name, res.Err, res.Pairs, res.Value, res.Found, want.Rows, want.Max, want.Found())
	}
}

// checkGroups holds a SUM group-by's answer over [lo, hi] to the reference.
func checkGroups(t *testing.T, w *joinWorld, name string, res GroupByResult, lo, hi, width int64) {
	t.Helper()
	want := reference.GroupBy(w.build, lo, hi, width)
	if res.Err != nil || len(res.Groups) != len(want) {
		t.Fatalf("%s: err %v, %d groups; want %d", name, res.Err, len(res.Groups), len(want))
	}
	for i, g := range res.Groups {
		if ref := want[g.Key]; g.Rows != ref.Rows || g.Value != ref.Sum || (i > 0 && g.Key <= res.Groups[i-1].Key) {
			t.Fatalf("%s: group %d (sum %d, %d rows) at %d; want (sum %d, %d rows) in key order",
				name, g.Key, g.Value, g.Rows, i, ref.Sum, ref.Rows)
		}
	}
}

// TestHashOperatorsReuseTheirTables: a hash join's build multiplicities and
// a group-by's fold live in tables the node's Scratch hands out and takes
// back, so running an operator again regrows nothing; two joins running at
// once each hold a table of their own; an aborted join gives its table back.
func TestHashOperatorsReuseTheirTables(t *testing.T) {
	const rows = 60_000
	w := newJoinWorld(t, rows, rows)
	w.ctx.Pool = buffer.NewPool(w.env, 8192) // both tables and their indexes
	join := w.spec(0, rows, FullScan, FullScan, 4)
	gb := GroupBySpec{Scan: join.Build, GroupWidth: 1, Agg: AggSum}
	// Warm the pool without a Scratch, so every run below is served from
	// memory and allocates for its tables and its processes alone.
	ExecuteJoin(w.ctx, join)
	ExecuteGroupBy(w.ctx, gb)
	w.ctx.Scratch = &Scratch{}

	var res [2]JoinResult
	var bytes [2]uint64
	for i := range res {
		bytes[i] = allocated(func() { res[i] = ExecuteJoin(w.ctx, join) })
		checkJoin(t, w, "join", res[i], 0, rows)
	}
	if res[0].BuildRows < 50_000 {
		t.Fatalf("build of %d rows, want at least 50 000", res[0].BuildRows)
	}
	if !raceEnabled && bytes[1]*20 >= bytes[0] {
		t.Errorf("second join allocated %d bytes, first %d: want under 5 %%", bytes[1], bytes[0])
	}

	// A group-by's answer is a slice it makes afresh on every run; what
	// it folds into is not.
	var groups [2]GroupByResult
	for i := range groups {
		bytes[i] = allocated(func() { groups[i] = ExecuteGroupBy(w.ctx, gb) })
		checkGroups(t, w, "group-by", groups[i], 0, rows, 1)
		bytes[i] -= uint64(cap(groups[i].Groups)) * uint64(unsafe.Sizeof(Group{}))
	}
	if !raceEnabled && bytes[1]*20 >= bytes[0] {
		t.Errorf("second group-by allocated %d bytes beside its answer, first %d: want under 5 %%", bytes[1], bytes[0])
	}
	if n := len(w.ctx.Scratch.tables); n != 1 {
		t.Fatalf("%d tables on the list after serial runs, want 1", n)
	}

	// Two joins over overlapping ranges at once: a shared table would count
	// each overlapping key's build rows twice.
	ranges := [2][2]int64{{0, 40_000}, {20_000, rows}}
	var span [2][2]sim.Time
	for i, rg := range ranges {
		w.env.Go("join", func(p *sim.Proc) {
			span[i][0] = p.Now()
			res[i] = RunJoin(p, w.ctx, w.spec(rg[0], rg[1], FullScan, FullScan, 4))
			span[i][1] = p.Now()
		})
	}
	w.env.Run()
	if span[0][0] >= span[1][1] || span[1][0] >= span[0][1] {
		t.Fatalf("joins ran over %v and %v: they were meant to overlap", span[0], span[1])
	}
	for i, rg := range ranges {
		checkJoin(t, w, "concurrent join", res[i], rg[0], rg[1])
	}
	if tabs := w.ctx.Scratch.tables; len(tabs) != 2 || tabs[0] == tabs[1] {
		t.Errorf("%d tables on the list after two concurrent joins, want 2 distinct", len(tabs))
	}

	// A join canceled halfway through its build.
	start := len(w.ctx.Scratch.tables)
	build := Execute(w.ctx, join.Build)
	ctl := fault.NewControl(w.env)
	canceled := join
	canceled.Build.Ctl, canceled.Probe.Ctl = ctl, ctl
	w.env.Schedule(build.Runtime/2, func() { ctl.Cancel(fault.ErrCanceled) })
	aborted := ExecuteJoin(w.ctx, canceled)
	if !errors.Is(aborted.Err, fault.ErrCanceled) || aborted.BuildRows >= build.RowsMatched || aborted.ProbeRows != 0 {
		t.Fatalf("canceled join: err %v, %d of %d build rows, %d probe rows; want canceled mid-build",
			aborted.Err, aborted.BuildRows, build.RowsMatched, aborted.ProbeRows)
	}
	if n := len(w.ctx.Scratch.tables); n != start {
		t.Errorf("%d tables on the list after a canceled join, want %d", n, start)
	}
}

// TestJoinsOnTwoSystemsShareNoTable runs hash joins on two systems from two
// host goroutines at once. Each node's tables live on its own Scratch, so
// nothing is shared; a list kept anywhere wider fails under -race.
func TestJoinsOnTwoSystemsShareNoTable(t *testing.T) {
	var wg sync.WaitGroup
	for range 2 {
		w := newJoinWorld(t, 3000, 3000)
		w.ctx.Scratch = &Scratch{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 3 {
				checkJoin(t, w, "join", ExecuteJoin(w.ctx, w.spec(0, 2999, FullScan, IndexScan, 4)), 0, 2999)
			}
		}()
	}
	wg.Wait()
}
