package exec

import (
	"testing"

	"pioqo/internal/btree"
	"pioqo/internal/buffer"
	"pioqo/internal/device"
	"pioqo/internal/disk"
	"pioqo/internal/reference"
	"pioqo/internal/sim"
	"pioqo/internal/table"
)

// world is a complete single-table database over one simulated device.
type world struct {
	env *sim.Env
	ctx *Context
	tab *table.Materialized
	idx *btree.Index
}

type worldOpts struct {
	dev       string // "ssd" or "hdd"
	rows      int64
	rpp       int
	poolPages int
	cores     int
	wrap      func(device.Device) device.Device // a probe between the pool and the device; nil: none
}

func newWorld(t *testing.T, o worldOpts) *world {
	t.Helper()
	if o.dev == "" {
		o.dev = "ssd"
	}
	if o.cores == 0 {
		o.cores = 8
	}
	if o.poolPages == 0 {
		o.poolPages = 4096
	}
	env := sim.NewEnv(404)
	var dev device.Device
	if o.dev == "hdd" {
		dev = device.NewHDD(env, device.DefaultHDDConfig())
	} else {
		dev = device.NewSSD(env, device.DefaultSSDConfig())
	}
	if o.wrap != nil {
		dev = o.wrap(dev)
	}
	m := disk.NewManager(dev)
	tab := table.NewMaterialized(m, "t", o.rows, o.rpp, 7)
	idx := btree.NewMaterialized(m, tab, 0, 0)
	return &world{
		env: env,
		tab: tab,
		idx: idx,
		ctx: &Context{
			Env:   env,
			CPU:   sim.NewResource(env, "cpu", o.cores),
			Pool:  buffer.NewPool(env, o.poolPages),
			Dev:   dev,
			Costs: DefaultCPUCosts(),
		},
	}
}

func (w *world) spec(m Method, degree int, lo, hi int64) Spec {
	return Spec{Table: w.tab, Index: w.idx, Lo: lo, Hi: hi, Method: m, Degree: degree}
}

func TestAllMethodsAgreeWithBruteForce(t *testing.T) {
	w := newWorld(t, worldOpts{rows: 5000, rpp: 33})
	ranges := []struct{ lo, hi int64 }{{0, 49}, {100, 1100}, {0, 4999}, {4990, 4999}}
	for _, rg := range ranges {
		want := reference.Aggregate(w.tab, rg.lo, rg.hi)
		for _, m := range []Method{FullScan, IndexScan} {
			for _, degree := range []int{1, 4, 32} {
				res := Execute(w.ctx, w.spec(m, degree, rg.lo, rg.hi))
				if res.Found != want.Found() || (want.Found() && res.Value != want.Max) {
					t.Errorf("%v deg=%d range [%d,%d]: max=(%d,%v), want (%d,%v)",
						m, degree, rg.lo, rg.hi, res.Value, res.Found, want.Max, want.Found())
				}
				if res.RowsMatched != want.Rows {
					t.Errorf("%v deg=%d range [%d,%d]: rows=%d, want %d",
						m, degree, rg.lo, rg.hi, res.RowsMatched, want.Rows)
				}
			}
		}
	}
}

func TestIndexScanWithPrefetchStaysCorrect(t *testing.T) {
	w := newWorld(t, worldOpts{rows: 4000, rpp: 33})
	want := reference.Aggregate(w.tab, 200, 900)
	for _, pf := range []int{1, 8, 32} {
		s := w.spec(IndexScan, 2, 200, 900)
		s.PrefetchPerWorker = pf
		res := Execute(w.ctx, s)
		if !want.Found() || res.Value != want.Max || res.RowsMatched != want.Rows {
			t.Errorf("prefetch=%d: got (max=%d rows=%d), want (max=%d rows=%d)",
				pf, res.Value, res.RowsMatched, want.Max, want.Rows)
		}
	}
}

func TestEmptyRange(t *testing.T) {
	w := newWorld(t, worldOpts{rows: 1000, rpp: 33})
	for _, m := range []Method{FullScan, IndexScan} {
		res := Execute(w.ctx, w.spec(m, 4, 600, 599))
		if res.Found || res.RowsMatched != 0 {
			t.Errorf("%v on empty range: found=%v rows=%d", m, res.Found, res.RowsMatched)
		}
	}
}

func TestPISQueueDepthTracksDegree(t *testing.T) {
	// The paper (§2): "the I/O pattern of PIS with parallel degree n is
	// parallel random I/O with constant queue depth of n."
	w := newWorld(t, worldOpts{rows: 60000, rpp: 1, poolPages: 512})
	for _, degree := range []int{1, 8} {
		w.ctx.Pool.Flush()
		res := Execute(w.ctx, w.spec(IndexScan, degree, 0, 20000))
		got := res.IO.AvgQueueDepth
		if got < 0.6*float64(degree) || got > 1.5*float64(degree) {
			t.Errorf("PIS degree %d: avg queue depth %.2f, want ~%d", degree, got, degree)
		}
	}
}

func TestPISScalesOnSSDButBarelyOnHDD(t *testing.T) {
	// The range must span many index leaves; with fewer leaves than
	// workers, parallelism is capped by the leaf count (the paper's noted
	// exception for very selective queries).
	run := func(dev string, degree int) sim.Duration {
		w := newWorld(t, worldOpts{dev: dev, rows: 30000, rpp: 1, poolPages: 512})
		return Execute(w.ctx, w.spec(IndexScan, degree, 0, 12000)).Runtime
	}
	ssdGain := float64(run("ssd", 1)) / float64(run("ssd", 32))
	hddGain := float64(run("hdd", 1)) / float64(run("hdd", 32))
	if ssdGain < 8 {
		t.Errorf("PIS32/IS speedup on SSD = %.1fx, want >= 8x", ssdGain)
	}
	if hddGain > 6 {
		t.Errorf("PIS32/IS speedup on HDD = %.1fx, want modest (paper: ~2.4x)", hddGain)
	}
	if ssdGain < 2*hddGain {
		t.Errorf("SSD gain %.1fx not clearly above HDD gain %.1fx", ssdGain, hddGain)
	}
}

func TestPFTSBeatsFTSOnSSD(t *testing.T) {
	run := func(degree int) sim.Duration {
		w := newWorld(t, worldOpts{rows: 30000, rpp: 1, poolPages: 1024})
		return Execute(w.ctx, w.spec(FullScan, degree, 0, 100)).Runtime
	}
	gain := float64(run(1)) / float64(run(8))
	if gain < 1.5 {
		t.Errorf("PFTS8/FTS speedup on SSD = %.2fx, want > 1.5x", gain)
	}
}

func TestPrefetchingAcceleratesIndexScan(t *testing.T) {
	// §3.3: per-worker prefetching raises the queue depth without extra
	// workers; more prefetch => shorter runtime on SSD.
	run := func(prefetch int) sim.Duration {
		w := newWorld(t, worldOpts{rows: 60000, rpp: 1, poolPages: 2048})
		s := w.spec(IndexScan, 1, 0, 6000)
		s.PrefetchPerWorker = prefetch
		return Execute(w.ctx, s).Runtime
	}
	base := run(0)
	pf8 := run(8)
	pf32 := run(32)
	if float64(base)/float64(pf8) < 4 {
		t.Errorf("prefetch 8 speedup = %.1fx, want >= 4x", float64(base)/float64(pf8))
	}
	if pf32 >= pf8 {
		t.Errorf("prefetch 32 (%v) not faster than prefetch 8 (%v)", pf32, pf8)
	}
}

func TestFewWorkersWithPrefetchRivalManyWorkers(t *testing.T) {
	// Paper §3.3: "with only 4 workers and a prefetching degree of 32, we
	// can achieve a performance even 35% better than using 32 workers and
	// no prefetching at all."
	run := func(degree, prefetch int) sim.Duration {
		w := newWorld(t, worldOpts{rows: 60000, rpp: 1, poolPages: 4096})
		s := w.spec(IndexScan, degree, 0, 6000)
		s.PrefetchPerWorker = prefetch
		return Execute(w.ctx, s).Runtime
	}
	workers32 := run(32, 0)
	pf4x32 := run(4, 32)
	if float64(pf4x32) > 1.3*float64(workers32) {
		t.Errorf("4 workers x 32 prefetch (%v) much slower than 32 workers (%v)",
			pf4x32, workers32)
	}
}

func TestWarmPoolMakesRerunFaster(t *testing.T) {
	w := newWorld(t, worldOpts{rows: 3000, rpp: 33, poolPages: 4096})
	cold := Execute(w.ctx, w.spec(FullScan, 1, 0, 100))
	warm := Execute(w.ctx, w.spec(FullScan, 1, 0, 100))
	if warm.Runtime >= cold.Runtime {
		t.Errorf("warm run %v not faster than cold %v", warm.Runtime, cold.Runtime)
	}
	if warm.IO.Requests != 0 {
		t.Errorf("warm run issued %d device reads, want 0 (table fits in pool)",
			warm.IO.Requests)
	}
}

func TestIndexScanRereadsPagesWhenPoolIsSmall(t *testing.T) {
	// At high selectivity with a tiny pool, IS fetches more table pages
	// than the table has — the re-retrieval effect of §2.
	w := newWorld(t, worldOpts{rows: 20000, rpp: 33, poolPages: 128})
	res := Execute(w.ctx, w.spec(IndexScan, 1, 0, 15000))
	tablePages := w.tab.Pages()
	if res.IO.Requests <= tablePages {
		t.Errorf("IS read %d pages, want > table size %d (re-reads under small pool)",
			res.IO.Requests, tablePages)
	}
}

func TestExecuteMetersOnlyItsOwnTraffic(t *testing.T) {
	w := newWorld(t, worldOpts{rows: 2000, rpp: 33})
	first := Execute(w.ctx, w.spec(FullScan, 1, 0, 10))
	second := Execute(w.ctx, w.spec(FullScan, 1, 0, 10))
	if second.IO.Requests >= first.IO.Requests && first.IO.Requests > 0 {
		t.Errorf("second run metered %d requests, first %d; expected warm rerun to meter fewer",
			second.IO.Requests, first.IO.Requests)
	}
}

func TestIndexScanWithoutIndexPanics(t *testing.T) {
	w := newWorld(t, worldOpts{rows: 100, rpp: 10})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for IndexScan without index")
		}
	}()
	s := w.spec(IndexScan, 1, 0, 10)
	s.Index = nil
	Execute(w.ctx, s)
}

func TestDegreeDefaultsToOne(t *testing.T) {
	w := newWorld(t, worldOpts{rows: 500, rpp: 33})
	res := Execute(w.ctx, w.spec(FullScan, 0, 0, 499))
	if res.RowsMatched == 0 {
		t.Error("scan with degree 0 (defaulted) matched nothing")
	}
}

func TestClampReadaheadBounds(t *testing.T) {
	cases := []struct {
		name                       string
		capacity, degree           int
		blockPages, prefetchBlocks int
		wantBP, wantPF             int
	}{
		// Production shapes: the window (cap/2 − degree) accommodates the
		// default 64-page block and clamps only the block count.
		{"pool256-serial", 256, 1, 64, 4, 64, 1},
		{"pool256-d8", 256, 8, 64, 4, 64, 1},
		{"pool512-d8", 512, 8, 64, 4, 64, 3},
		{"pool2048-d1", 2048, 1, 64, 4, 64, 4},
		// Tiny pools: the block itself shrinks to the window, and the
		// block count floors at one in-flight block.
		{"pool64-d8", 64, 8, 64, 4, 24, 1},
		{"pool16-d8", 16, 8, 64, 4, 1, 4},
		{"pool16-d1", 16, 1, 64, 4, 7, 1},
		// Degree at or beyond half the pool: window floors at one page,
		// which degenerates to single-page (non-block) reads.
		{"degree-swallows-pool", 32, 16, 64, 4, 1, 4},
		// Block reads disabled pass through untouched.
		{"disabled", 16, 8, 1, 4, 1, 4},
	}
	for _, c := range cases {
		bp, pf := clampReadahead(c.capacity, c.degree, c.blockPages, c.prefetchBlocks)
		if bp != c.wantBP || pf != c.wantPF {
			t.Errorf("%s: clampReadahead(%d, %d, %d, %d) = (%d, %d), want (%d, %d)",
				c.name, c.capacity, c.degree, c.blockPages, c.prefetchBlocks,
				bp, pf, c.wantBP, c.wantPF)
		}
		if bp > 1 {
			if used := bp*pf + c.degree; used > c.capacity/2 {
				t.Errorf("%s: window invariant violated: %d·%d + %d = %d > %d",
					c.name, bp, pf, c.degree, used, c.capacity/2)
			}
		}
	}
}

// The block count clampReadahead leaves must shrink with the degree, cap at
// the planned count, and never fall below one block.
func TestLiveWindowBoundary(t *testing.T) {
	cases := []struct {
		capacity, degree, blockPages, prefetchBlocks, want int
	}{
		{128, 1, 8, 4, 4},  // plenty of room: planned count
		{128, 32, 8, 4, 4}, // (64-32)/8 = 4: exactly the planned count
		{128, 40, 8, 4, 3}, // a larger fleet eats into the window
		{128, 60, 8, 4, 1}, // (64-60)/8 = 0: floor of one block
		{128, 1, 1, 4, 4},  // single-page blocks: flow control untouched
	}
	for _, c := range cases {
		_, got := clampReadahead(c.capacity, c.degree, c.blockPages, c.prefetchBlocks)
		if got != c.want {
			t.Errorf("clampReadahead(%d,%d,%d,%d) blocks = %d, want %d",
				c.capacity, c.degree, c.blockPages, c.prefetchBlocks, got, c.want)
		}
	}
}

func TestFullScanSurvivesTinyPool(t *testing.T) {
	// A pool far smaller than one default readahead block, swept at high
	// degree: pinned pages plus in-flight block frames exceed the raw
	// capacity unless the readahead window is clamped against the degree.
	// (Clamping against capacity alone admitted a 4-page window into a
	// 16-frame pool with 8 additional pins — fine — but a 64-frame pool at
	// degree 8 kept a 32-page block plus 8 pins plus the LRU's loading
	// frames, which could exhaust it.)
	for _, o := range []worldOpts{
		{rows: 20000, rpp: 33, poolPages: 16},
		{rows: 20000, rpp: 33, poolPages: 64},
	} {
		w := newWorld(t, o)
		want := reference.Aggregate(w.tab, 0, 19999)
		s := w.spec(FullScan, 8, 0, 19999)
		res := Execute(w.ctx, s)
		if res.Found != want.Found() || res.Value != want.Max || res.RowsMatched != want.Rows {
			t.Errorf("pool=%d: got (%d,%v,%d), want (%d,%v,%d)", o.poolPages,
				res.Value, res.Found, res.RowsMatched, want.Max, want.Found(), want.Rows)
		}
	}
}

func TestIndexScanPrefetchClampedToTinyPool(t *testing.T) {
	// Deep prefetch times many workers must not exhaust a small pool: the
	// scan clamps its window rather than panicking on frame exhaustion.
	w := newWorld(t, worldOpts{rows: 20000, rpp: 1, poolPages: 96})
	want := reference.Aggregate(w.tab, 0, 8000)
	s := w.spec(IndexScan, 16, 0, 8000)
	s.PrefetchPerWorker = 32
	res := Execute(w.ctx, s)
	if res.RowsMatched != want.Rows {
		t.Errorf("matched %d rows, want %d", res.RowsMatched, want.Rows)
	}
}

func TestAggregatesAgreeWithBruteForce(t *testing.T) {
	w := newWorld(t, worldOpts{rows: 3000, rpp: 33})
	lo, hi := int64(100), int64(900)
	want := reference.Aggregate(w.tab, lo, hi)
	for _, m := range []Method{FullScan, IndexScan} {
		cases := []struct {
			agg  AggKind
			want int64
		}{
			{AggMax, want.Max}, {AggMin, want.Min}, {AggSum, want.Sum}, {AggCount, want.Rows},
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
	for _, m := range []Method{FullScan, IndexScan} {
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

// grantedGov is a Governor granted from the start with a fixed credit
// budget and pool reservation.
type grantedGov struct{ budget, pages int }

func (g grantedGov) Admit(*sim.Proc)             {}
func (g grantedGov) Admitted() bool              { return true }
func (g grantedGov) OnAdmit(fn func())           { fn() }
func (g grantedGov) Park(*int, int64)            {}
func (g grantedGov) Budget() int                 { return g.budget }
func (g grantedGov) GrantedAt() (sim.Time, bool) { return 0, true }
func (g grantedGov) Gated() bool                 { return true }
func (g grantedGov) PoolPages() int              { return g.pages }
func (g grantedGov) StartWorker()                {}
func (g grantedGov) EndWorker()                  {}

// TestBoundedLeaseWithNoPagesReadsNoAhead: a lease granted on a fully
// reserved pool holds credits and no pages, and a full scan under it
// budgets its readahead against those none: its workers read their own
// pages. An unbounded lease budgets against the whole pool and reads ahead
// in blocks; both return the same answer.
func TestBoundedLeaseWithNoPagesReadsNoAhead(t *testing.T) {
	var answers []Result
	for _, gov := range []grantedGov{{budget: 0, pages: 0}, {budget: 8, pages: 0}} {
		w := newWorld(t, worldOpts{rows: 20000, rpp: 33})
		s := w.spec(FullScan, 4, 0, 19999)
		s.Gov = gov
		if got, want := s.poolCapacity(w.ctx), map[bool]int{true: 4096, false: 0}[gov.budget == 0]; got != want {
			t.Errorf("%+v: budgets against %d pages, want %d", gov, got, want)
		}
		res := Execute(w.ctx, s)
		reads := w.ctx.Pool.Stats.PrefetchReads
		if ahead := gov.budget == 0; (reads > 0) != ahead {
			t.Errorf("%+v: %d readahead reads; want readahead %v", gov, reads, ahead)
		}
		answers = append(answers, res)
	}
	if a, b := answers[0], answers[1]; a.Value != b.Value || a.RowsMatched != b.RowsMatched {
		t.Errorf("answers differ: %d/%d rows vs %d/%d", a.Value, a.RowsMatched, b.Value, b.RowsMatched)
	}
}
