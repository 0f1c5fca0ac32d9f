package opt

import (
	"math"
	"testing"

	"pioqo/internal/btree"
	"pioqo/internal/buffer"
	"pioqo/internal/calibrate"
	"pioqo/internal/cost"
	"pioqo/internal/device"
	"pioqo/internal/disk"
	"pioqo/internal/exec"
	"pioqo/internal/sim"
	"pioqo/internal/table"
)

// fixture bundles a table+index over a device with calibrated models.
type fixture struct {
	in   Input
	qdtt *cost.QDTT
	dtt  *cost.DTT
	cfg  Config // with Model unset; tests plug in dtt or qdtt
}

// calibratedDevice builds an SSD or HDD model on a fresh environment and
// calibrates a QDTT grid on it: a coarse one on the SSD, DefaultConfig's
// bands on the HDD. A drive that orders its queue by access time reads the
// one-track band 256 at depth 32 for 301 us a page and band 65 536 for
// 1 930, and a straight line between the two prices a 6 061-page table's
// band at 446 us, where a grid that measures that band reads 1 393 (and
// DefaultConfig's bands interpolate 1 444): the coarse bands would make the
// HDD's parallel index scans look three times cheaper than they run.
func calibratedDevice(devKind string, seed int64) (*sim.Env, device.Device, *cost.QDTT) {
	env := sim.NewEnv(seed)
	var dev device.Device
	if devKind == "hdd" {
		dev = device.NewHDD(env, device.DefaultHDDConfig())
	} else {
		dev = device.NewSSD(env, device.DefaultSSDConfig())
	}
	ccfg := calibrate.DefaultConfig(dev)
	ccfg.MaxReads = 800
	if devKind != "hdd" {
		ccfg.Bands = []int64{1, 256, 64 << 10, dev.Size() / disk.PageSize}
	}
	return env, dev, calibrate.Run(env, dev, ccfg).Model
}

func newFixture(t *testing.T, devKind string, rows int64, rpp int) *fixture {
	t.Helper()
	env, dev, model := calibratedDevice(devKind, 11)

	m := disk.NewManager(dev)
	tab := table.NewSynthetic(m, "t", rows, rpp, 5)
	idx := btree.NewSynthetic(m, tab, 0, 0)
	pool := buffer.NewPool(env, 2048)
	return &fixture{
		in:   Input{Table: tab, Index: idx, Pool: pool},
		qdtt: model,
		dtt:  model.DepthOne(),
		cfg: Config{
			Costs:     exec.DefaultCPUCosts(),
			Cores:     8,
			PoolPages: 2048,
		},
	}
}

// rangeFor returns a predicate covering fraction sel of the key domain.
func rangeFor(tab table.Table, sel float64) (int64, int64) {
	hi := int64(sel*float64(tab.KeyDomain())) - 1
	if hi < 0 {
		hi = 0
	}
	return 0, hi
}

func (f *fixture) choose(t *testing.T, model cost.Model, sel float64) Plan {
	t.Helper()
	cfg := f.cfg
	cfg.Model = model
	in := f.in
	in.Lo, in.Hi = rangeFor(f.in.Table, sel)
	return Choose(cfg, in)
}

func TestOldOptimizerNeverParallelizesIndexScans(t *testing.T) {
	// §4.3: under DTT, I/O-dominated plans gain nothing from parallelism,
	// so the old optimizer never picks a parallel index scan — parallel I/O
	// is the *only* thing PIS buys (its CPU work is negligible), and DTT
	// cannot see it. (Unlike the paper's engine, our honest CPU model does
	// let the old optimizer pick low-degree PFTS in the CPU-bound full-scan
	// region; see DESIGN.md, Known deviations.)
	f := newFixture(t, "ssd", 200000, 33)
	cfg := f.cfg
	cfg.Model = f.dtt
	for _, sel := range []float64{0.0001, 0.001, 0.01, 0.1, 0.5} {
		in := f.in
		in.Lo, in.Hi = rangeFor(f.in.Table, sel)
		for _, p := range Enumerate(cfg, in) {
			if p.Method == exec.IndexScan && p.Degree > 1 {
				best := Choose(cfg, in)
				if best.Method == exec.IndexScan && best.Degree > 1 {
					t.Errorf("sel=%.4f: old optimizer chose %v", sel, best)
				}
			}
		}
	}
	// And wherever it chooses an index scan at all — below its own
	// break-even, found here and not typed in, so that a change to the
	// sequential price moves the probe with the crossing — it is the plain
	// non-parallel IS.
	sel := f.breakEven(t, f.dtt) / 2
	p := f.choose(t, f.dtt, sel)
	if p.Method != exec.IndexScan || p.Degree != 1 {
		t.Errorf("sel=%.4f%% (half the DTT break-even): old optimizer chose %v, want IS degree 1", sel*100, p)
	}
}

func TestNewOptimizerPicksParallelIndexScanOnSSD(t *testing.T) {
	f := newFixture(t, "ssd", 200000, 33)
	p := f.choose(t, f.qdtt, 0.001)
	if p.Method != exec.IndexScan {
		t.Fatalf("sel=0.1%%: chose %v, want IndexScan", p.Method)
	}
	if p.Degree < 16 {
		t.Errorf("sel=0.1%%: chose degree %d, want high (>=16)", p.Degree)
	}
}

func TestNewOptimizerPicksFullScanAtHighSelectivity(t *testing.T) {
	f := newFixture(t, "ssd", 200000, 33)
	p := f.choose(t, f.qdtt, 0.5)
	if p.Method != exec.FullScan {
		t.Errorf("sel=50%%: chose %v, want FullScan", p.Method)
	}
}

// breakEven finds the selectivity where the optimizer switches from index
// scan to full scan, by bisection.
func (f *fixture) breakEven(t *testing.T, model cost.Model) float64 {
	t.Helper()
	lo, hi := 1e-6, 1.0
	if f.choose(t, model, lo).Method != exec.IndexScan {
		return lo
	}
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if f.choose(t, model, mid).Method == exec.IndexScan {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

func TestQDTTShiftsBreakEvenRightOnSSD(t *testing.T) {
	// The paper's central claim (Table 2): on SSD the parallel break-even
	// point sits at a much larger selectivity than the non-parallel one.
	f := newFixture(t, "ssd", 200000, 33)
	old := f.breakEven(t, f.dtt)
	new_ := f.breakEven(t, f.qdtt)
	if new_ < 3*old {
		t.Errorf("break-even shifted %.4f%% -> %.4f%%, want >= 3x shift",
			old*100, new_*100)
	}
}

func TestBreakEvenShiftSmallOnHDD(t *testing.T) {
	f := newFixture(t, "hdd", 200000, 33)
	old := f.breakEven(t, f.dtt)
	new_ := f.breakEven(t, f.qdtt)
	if old == 0 {
		t.Fatal("degenerate old break-even")
	}
	t.Logf("HDD break-even %.4f%% -> %.4f%% (%.1fx)", old*100, new_*100, new_/old)
	if new_ > 8*old {
		t.Errorf("HDD break-even shifted %.4f%% -> %.4f%%; want modest shift",
			old*100, new_*100)
	}
}

func TestBreakEvenSmallerWithMoreRowsPerPage(t *testing.T) {
	// Table 2, reading down a column: more rows per page => smaller
	// break-even selectivity. The tables are sized as Table 1 sizes them,
	// the same heap pages at every density: a fixed row count would shrink
	// the dense table inside the pool, where an index scan's heap I/O stops
	// growing with the selectivity and the crossing says nothing of density.
	be := func(rpp int) float64 {
		f := newFixture(t, "ssd", 6000*int64(rpp), rpp)
		return f.breakEven(t, f.qdtt)
	}
	if b1, b33 := be(1), be(33); b33 >= b1 {
		t.Errorf("break-even rpp=33 (%.3f%%) not below rpp=1 (%.3f%%)", b33*100, b1*100)
	}
	if b33, b500 := be(33), be(500); b500 >= b33 {
		t.Errorf("break-even rpp=500 (%.4f%%) not below rpp=33 (%.4f%%)", b500*100, b33*100)
	}
}

func TestEnumerateSortedAndChooseIsMin(t *testing.T) {
	f := newFixture(t, "ssd", 50000, 33)
	cfg := f.cfg
	cfg.Model = f.qdtt
	in := f.in
	in.Lo, in.Hi = rangeFor(in.Table, 0.01)
	plans := Enumerate(cfg, in)
	if len(plans) != 12 { // {FTS, IS} x {1,2,4,8,16,32}
		t.Fatalf("%d plans, want 12", len(plans))
	}
	for i := 1; i < len(plans); i++ {
		if plans[i].TotalMicros < plans[i-1].TotalMicros {
			t.Fatal("Enumerate not sorted by cost")
		}
	}
	if got := Choose(cfg, in); got != plans[0] {
		t.Error("Choose differs from cheapest enumerated plan")
	}
}

func TestSelectivityClamping(t *testing.T) {
	f := newFixture(t, "ssd", 1000, 33)
	in := f.in
	if got := selectivity(&in, 0, 1<<40); got != 1 {
		t.Errorf("overshooting hi: selectivity %f, want 1", got)
	}
	if got := selectivity(&in, -100, -1); got != 0 {
		t.Errorf("negative range: selectivity %f, want 0", got)
	}
	if got := selectivity(&in, 0, 99); got != 0.1 {
		t.Errorf("10%% range: selectivity %f, want 0.1", got)
	}
}

// serialFullScan prices the serial full scan at the input's constants and
// the pool's current residency. It binds no page estimator: a full scan
// reads every page whatever matches, so it must never ask for one.
func serialFullScan(cfg Config, in Input) Plan {
	cc := bindCosting(&in, selectivity(&in, in.Lo, in.Hi), nil)
	return costFullScan(&cfg, &in, &cc, 1)
}

func TestResidentPagesReduceEstimatedIO(t *testing.T) {
	f := newFixture(t, "ssd", 50000, 33)
	cfg := f.cfg
	cfg.Model = f.qdtt
	in := f.in
	in.Lo, in.Hi = rangeFor(in.Table, 0.9)
	cold := serialFullScan(cfg, in)

	// Warm part of the heap into the pool, then re-cost.
	for p := int64(0); p < 1000; p++ {
		in.Pool.Prefetch(in.Table.File(), p)
	}
	warm := serialFullScan(cfg, in)
	if warm.IOMicros >= cold.IOMicros {
		t.Errorf("warm FTS I/O estimate %.0fus not below cold %.0fus",
			warm.IOMicros, cold.IOMicros)
	}
	if warm.EstPageIO >= cold.EstPageIO {
		t.Errorf("warm page estimate %.0f not below cold %.0f",
			warm.EstPageIO, cold.EstPageIO)
	}
}

func TestNilModelPanics(t *testing.T) {
	f := newFixture(t, "ssd", 1000, 33)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic with nil model")
		}
	}()
	Choose(f.cfg, f.in)
}

func TestPlanSpecRoundTrip(t *testing.T) {
	f := newFixture(t, "ssd", 1000, 33)
	in := f.in
	in.Lo, in.Hi = 10, 99
	p := Plan{Method: exec.IndexScan, Degree: 8}
	spec := p.Spec(in)
	if spec.Method != exec.IndexScan || spec.Degree != 8 ||
		spec.Lo != 10 || spec.Hi != 99 || spec.Table != in.Table || spec.Index != in.Index {
		t.Errorf("Spec round trip lost fields: %+v", spec)
	}
}

func TestPlanString(t *testing.T) {
	p := Plan{Method: exec.IndexScan, Degree: 32, TotalMicros: 1000}
	if got := p.String(); got[:6] != "PIS32 " {
		t.Errorf("String() = %q, want PIS32 prefix", got)
	}
	p = Plan{Method: exec.FullScan, Degree: 1}
	if got := p.String(); got[:4] != "FTS " {
		t.Errorf("String() = %q, want FTS prefix", got)
	}
}

// TestSharedScanCandidate covers the attach-path pricing: with parties
// interested in the same table, the enumeration offers a shared plan whose
// I/O is one lap over N, and for an unselective scan the shared plan wins.
func TestSharedScanCandidate(t *testing.T) {
	f := newFixture(t, "ssd", 60000, 33)
	cfg := f.cfg
	cfg.Model = f.qdtt
	in := f.in
	in.Lo, in.Hi = rangeFor(f.in.Table, 1.0)

	for _, parties := range []int{0, 1} {
		cfg.ShareParties = parties
		for _, p := range Enumerate(cfg, in) {
			if p.Shared {
				t.Errorf("ShareParties=%d enumerated a shared plan: %v", parties, p)
			}
		}
	}

	cfg.ShareParties = 8
	plans := Enumerate(cfg, in)
	var shared *Plan
	for i := range plans {
		if plans[i].Shared {
			if shared != nil {
				t.Fatal("more than one shared candidate enumerated")
			}
			shared = &plans[i]
		}
	}
	if shared == nil {
		t.Fatal("ShareParties=8 enumerated no shared plan")
	}
	if shared.Degree != 1 || shared.Method != exec.FullScan {
		t.Errorf("shared plan is %v %d-way, want degree-1 FullScan", shared.Method, shared.Degree)
	}

	// The rider's I/O share is the serial lap split N ways.
	solo := serialFullScan(cfg, in)
	if want := solo.IOMicros / 8; math.Abs(shared.IOMicros-want) > 1e-6 {
		t.Errorf("shared io = %.0fus, want lap/8 = %.0fus", shared.IOMicros, want)
	}

	// Under heavy concurrency the broker's split leaves each query ~one
	// queue-depth credit, forcing private plans serial — the regime the
	// attach path exists for. There the shared lap is never worse than a
	// serial private scan (same CPU, a fraction of the I/O) and the
	// stable enumeration order breaks the CPU-bound tie in its favor.
	cfg.QueueBudget = 1
	best := Choose(cfg, in)
	if !best.Shared {
		t.Errorf("full-table scan with 8 parties chose %v, want the shared plan", best)
	}
	if spec := best.Spec(in); !spec.Shared {
		t.Error("Plan.Spec dropped the Shared flag")
	}

	// The memo must not replay a differently-shared enumeration.
	m := NewMemo()
	cfg.ShareParties = 0
	m.LookupAll(&cfg, &in)
	cfg.ShareParties = 8
	if p := m.Choose(cfg, in); !p.Shared {
		t.Errorf("memo replayed the unshared enumeration for ShareParties=8: %v", p)
	}
}

// TestCostingEvaluatesThePageEstimateOnce pins the planning path's central
// economy: however many index-scan candidates an enumeration prices, the
// matched rows are turned into heap pages once per bound costing. The
// costing's estimator is taken away after the first evaluation, so a second
// one anywhere — full enumeration, greedy set, cached-shape re-pricing —
// dereferences nil.
func TestCostingEvaluatesThePageEstimateOnce(t *testing.T) {
	w := newStreamWorld("ssd")
	for _, name := range []string{"qb8", "maxdeg8", "prefetch", "all"} {
		s := w.shape(name)
		cfg, in := s.cfg, servingRange(s.in, 3) // 10 % of the rows: the pool overflows
		cfg.Obs = nil
		want := Enumerate(cfg, in)
		wantGreedy, _ := GreedyChoose(cfg, in)

		est := newEstimator(&cfg, &in)
		cc := bindCosting(&in, selectivity(&in, in.Lo, in.Hi), &est)
		cc.heapPages()
		cc.est = nil
		got := enumerate(&cfg, &in, &cc, nil)
		if len(got) != len(want) {
			t.Fatalf("%s: %d plans, want %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s: plan %d priced %v at the spent costing, %v afresh", name, i, got[i], want[i])
			}
			if p := costShape(&cfg, &in, &cc, got[i]); p != got[i] {
				t.Errorf("%s: plan %d re-prices to %v, enumerated as %v", name, i, p, got[i])
			}
		}
		if g, _ := greedyPlan(&cfg, &in, &cc, computeCrossover(&cfg, in.Table.Pages())); g.winner != wantGreedy {
			t.Errorf("%s: greedy chose %v at the spent costing, %v afresh", name, g.winner, wantGreedy)
		}
	}

	// Full and shared scans read every page whatever matches: they never
	// ask, so a costing that prices only those never evaluates Yao at all.
	s := w.shape("share4")
	cc := bindCosting(&s.in, 0.1, nil)
	costFullScan(&s.cfg, &s.in, &cc, 8)
	costSharedScan(&s.cfg, &s.in, &cc)
	if cc.priced {
		t.Error("a full or shared scan evaluated the page estimate")
	}
}

// TestChooseAllocatesOnlyItsPlanList: a stateless Choose builds its page
// estimator and ranks its candidates on the stack, so it allocates nothing:
// the plan it returns is a value.
func TestChooseAllocatesOnlyItsPlanList(t *testing.T) {
	w := newStreamWorld("ssd")
	s := w.shape("qb8")
	s.cfg.Obs = nil
	in := servingRange(s.in, 3)
	if allocs := testing.AllocsPerRun(100, func() { Choose(s.cfg, in) }); allocs > 0 {
		t.Errorf("Choose allocates %.1f/op, want 0", allocs)
	}
}

// TestPlanningAllocatesOnlyWhatItKeeps gates every path that ranks the full
// enumeration to read the top of it: the list goes on the caller's stack,
// and only what the path keeps reaches the heap. A warm memo's miss keeps a
// map entry in buckets an earlier fill left behind, a parameterized cache's
// crossover fallback keeps the entry publish installs when its ranking
// changed and nothing when it did not, and the greedy fast path's margin
// trip and a stateless Choose keep nothing.
func TestPlanningAllocatesOnlyWhatItKeeps(t *testing.T) {
	w := newStreamWorld("ssd")
	s := w.shape("all")
	cfg := s.cfg
	cfg.Obs, cfg.QueueBudget = nil, 0 // 49 candidates: the widest the engine ranks

	t.Run("memo miss", func(t *testing.T) {
		m := NewMemo()
		i := int64(0)
		miss := func() {
			in := s.in
			in.Lo, in.Hi = i, i+i%4096
			i++
			m.Choose(cfg, in)
		}
		// Fill the memo past its bound twice: the map is then at the size
		// it keeps for good.
		for i < 5*memoMaxEntries/2 {
			miss()
		}
		_, before := m.Stats()
		if allocs := testing.AllocsPerRun(1000, miss); allocs > 0 {
			t.Errorf("a warm memo's miss allocates %.2f/op, want 0", allocs)
		}
		if hits, after := m.Stats(); hits != 0 || after-before != 1001 {
			t.Fatalf("the measured lookups were not all misses: %d hits, %d misses", hits, after-before)
		}
	})

	// A selectivity on the index/full-scan crossover: the two families
	// price within the margin there, so every lookup falls back.
	f := newFixture(t, "ssd", 200000, 33)
	fcfg := f.cfg
	fcfg.Model = f.qdtt
	fcfg.GridKey = GridKey(fcfg.Degrees, fcfg.PrefetchDepths)
	in := f.in
	be := f.breakEven(t, f.qdtt)
	in.Lo, in.Hi = rangeFor(f.in.Table, be)

	t.Run("paramcache fallback", func(t *testing.T) {
		pc := NewParamCache()
		pc.Choose(fcfg, in) // creates the shape's line: a miss
		slot := &pc.bandSetFor(&fcfg, &in).slots[selBand(selectivity(&in, in.Lo, in.Hi))]
		entry, before := slot.Load(), pc.Stats().Fallbacks
		if allocs := testing.AllocsPerRun(100, func() { pc.Choose(fcfg, in) }); allocs > 0 {
			t.Errorf("a repeated crossover fallback allocates %.2f/op, want 0: it ranks what the entry holds", allocs)
		}
		if got := pc.Stats().Fallbacks - before; got != 101 {
			t.Fatalf("%d of 101 lookups fell back", got)
		}
		if slot.Load() != entry {
			t.Error("a fallback that ranked the entry's winner and runner republished it")
		}
	})

	// Two selectivities of one band on either side of the crossover: each
	// lookup finds the other's ranking cached, so each falls back and swaps
	// its own back in from the slot's previous entry.
	t.Run("paramcache fallback that re-ranks", func(t *testing.T) {
		var a, b Input
		found := false
		for _, d := range []float64{0.002, 0.005, 0.01, 0.02, 0.04} {
			a, b = in, in
			a.Lo, a.Hi = rangeFor(in.Table, be*(1-d))
			b.Lo, b.Hi = rangeFor(in.Table, be*(1+d))
			if selBand(selectivity(&a, a.Lo, a.Hi)) == selBand(selectivity(&b, b.Lo, b.Hi)) &&
				family(Choose(fcfg, a)) != family(Choose(fcfg, b)) {
				found = true
				break
			}
		}
		if !found {
			t.Fatal("no two selectivities of one band straddle the crossover")
		}
		pc := NewParamCache()
		slot := &pc.bandSetFor(&fcfg, &a).slots[selBand(selectivity(&a, a.Lo, a.Hi))]
		pc.Choose(fcfg, a)
		ea := slot.Load()
		before, i := pc.Stats().Fallbacks, 0
		allocs := testing.AllocsPerRun(100, func() {
			if i%2 == 0 {
				pc.Choose(fcfg, b)
			} else {
				pc.Choose(fcfg, a)
			}
			i++
		})
		if allocs > 0 {
			t.Errorf("a fallback whose winner changed back allocates %.2f/op, want 0: the slot keeps its previous entry", allocs)
		}
		if got := pc.Stats().Fallbacks - before; got != 101 {
			t.Fatalf("%d of 101 lookups fell back", got)
		}
		if prev := &pc.bandSetFor(&fcfg, &a).prev[selBand(selectivity(&a, a.Lo, a.Hi))]; slot.Load() != ea && prev.Load() != ea {
			t.Error("the first ranking's entry was dropped: the band republished it")
		}
	})

	t.Run("greedy margin trip", func(t *testing.T) {
		est := newEstimator(&fcfg, &in)
		cc := bindCosting(&in, selectivity(&in, in.Lo, in.Hi), &est)
		cx := computeCrossover(&fcfg, in.Table.Pages())
		if _, fell := greedyPlan(&fcfg, &in, &cc, cx); !fell {
			t.Fatal("the break-even selectivity did not trip the greedy margin")
		}
		if allocs := testing.AllocsPerRun(100, func() { greedyPlan(&fcfg, &in, &cc, cx) }); allocs > 0 {
			t.Errorf("a greedy margin trip allocates %.2f/op, want 0", allocs)
		}
	})

	t.Run("stateless choose", func(t *testing.T) {
		q := servingRange(s.in, 2)
		if n := len(Enumerate(cfg, q)); n != maxCandidates {
			t.Fatalf("%d candidates, want the grid's %d", n, maxCandidates)
		}
		if allocs := testing.AllocsPerRun(100, func() { Choose(cfg, q) }); allocs > 0 {
			t.Errorf("Choose allocates %.2f/op, want 0", allocs)
		}
	})
}

// depthProbe is a device that records the most reads it ever had
// outstanding.
type depthProbe struct {
	device.Device
	out, max int
}

func (d *depthProbe) ReadAt(offset int64, length int) *sim.Completion {
	c := d.Device.ReadAt(offset, length)
	d.out++
	d.max = max(d.max, d.out)
	c.OnFire(func() { d.out-- })
	return c
}

// TestScanDepthIsTheWindowTheScanRuns holds the optimizer to the executor:
// the queue depth costFullScan prices a scan at is the number of block reads
// a cold scan of that degree on that pool actually has in flight at its
// fullest — the default window, and what the pool clamp leaves of it when
// a wide fleet's pins eat into a small pool.
func TestScanDepthIsTheWindowTheScanRuns(t *testing.T) {
	for _, c := range []struct{ pool, degree int }{
		{2048, 1}, {2048, 8}, {2048, 32}, {1024, 32}, {512, 8}, {512, 32}, {256, 8}, {256, 32},
		{64, 16}, // one short block ahead
	} {
		env := sim.NewEnv(3)
		probe := &depthProbe{Device: device.NewSSD(env, device.DefaultSSDConfig())}
		tab := table.NewSynthetic(disk.NewManager(probe), "t", 4096, 1, 5)
		ctx := &exec.Context{
			Env:   env,
			CPU:   sim.NewResource(env, "cpu", 8),
			Pool:  buffer.NewPool(env, c.pool),
			Dev:   probe,
			Costs: exec.DefaultCPUCosts(),
		}
		exec.Execute(ctx, exec.Spec{Table: tab, Lo: 0, Hi: 99, Method: exec.FullScan, Degree: c.degree})

		cfg := Config{PoolPages: int64(c.pool)}
		if want := cfg.scanDepth(c.degree); probe.max != want {
			t.Errorf("pool %d, degree %d: the scan kept %d block reads in flight, the optimizer prices %d",
				c.pool, c.degree, probe.max, want)
		}
	}
}
