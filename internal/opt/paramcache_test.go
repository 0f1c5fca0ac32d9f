package opt

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"pioqo/internal/buffer"
	"pioqo/internal/device"
	"pioqo/internal/disk"
	"pioqo/internal/exec"
	"pioqo/internal/host"
	"pioqo/internal/obs"
	"pioqo/internal/sim"
	"pioqo/internal/stats"
	"pioqo/internal/table"
)

func TestSelBand(t *testing.T) {
	cases := []struct {
		sel  float64
		band int
	}{
		{1.0, 0}, {0.75, 0}, {0.5, 1}, {0.3, 1}, {0.25, 2},
		{0.01, 6}, {1e-5, 16}, {0, emptyBand}, {-1, emptyBand},
		{math.SmallestNonzeroFloat64, emptyBand - 1}, {2, 0},
	}
	for _, c := range cases {
		if got := selBand(c.sel); got != c.band {
			t.Errorf("selBand(%g) = %d, want %d", c.sel, got, c.band)
		}
	}
	for _, band := range []int{0, 1, 6, 40} {
		lo, hi := bandEdges(band)
		if selBand(hi) != band {
			t.Errorf("band %d: hi edge %g maps to band %d", band, hi, selBand(hi))
		}
		if lo > 0 && selBand(lo) != band+1 {
			t.Errorf("band %d: lo edge %g maps to band %d, want %d (exclusive edge)",
				band, lo, selBand(lo), band+1)
		}
	}
}

// TestSelBandEqualsLogarithm holds selBand, which reads the band off the
// float's exponent, to the formula it replaced — floor(-log2(sel)), rounding
// and all — over every range width of three table domains (the uniform
// estimator's every possible output), over the floats on both sides of
// every band edge, and over random selectivities.
func TestSelBandEqualsLogarithm(t *testing.T) {
	logBand := func(sel float64) int {
		b := int(math.Floor(-math.Log2(sel)))
		if b < 0 {
			b = 0
		}
		if b >= emptyBand {
			b = emptyBand - 1
		}
		return b
	}
	check := func(sel float64) {
		if got, want := selBand(sel), logBand(sel); got != want {
			t.Fatalf("selBand(%v) = %d, the logarithm says %d", sel, got, want)
		}
	}
	for _, domain := range []int64{405504, 1 << 20, 1000003} {
		for width := int64(1); width < domain; width++ {
			check(float64(width) / float64(domain))
		}
	}
	for b := 0; b < 80; b++ {
		below := math.Ldexp(1, -b)
		above := below
		for i := 0; i < 64; i++ {
			check(below)
			check(above)
			below, above = math.Nextafter(below, 0), math.Nextafter(above, 1)
		}
		// The hand-over between exponent and logarithm, 2⁻⁴⁰ above the edge.
		for _, d := range []float64{0x1p-41, 0x1p-40, 0x1.000001p-40, 0x1p-39, 1e-15, 1e-14} {
			check(math.Ldexp(0.5+d, -b))
		}
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1_000_000; i++ {
		check(math.Exp(-rng.Float64() * 50))
	}
	check(math.SmallestNonzeroFloat64)
}

// paramFixture returns a warm config+input pair for cache tests.
func paramFixture(t *testing.T) (Config, Input, *fixture) {
	t.Helper()
	f := newFixture(t, "ssd", 50000, 33)
	cfg := f.cfg
	cfg.Model = f.qdtt
	cfg.GridKey = GridKey(cfg.Degrees, cfg.PrefetchDepths)
	in := f.in
	in.Lo, in.Hi = rangeFor(in.Table, 0.01)
	return cfg, in, f
}

// TestShapeMatchIsKeyEquality holds matches, which a lookup finds its front
// set with, to the key equality the map finds the others with: with no
// field perturbed both hold, and perturbing any one of the key's fields —
// each moving only its own — fails both. Every field of shapeKey must have
// its perturbation here, so a field added to the key cannot go unmatched.
func TestShapeMatchIsKeyEquality(t *testing.T) {
	cfg, in, f := paramFixture(t)
	env := sim.NewEnv(1)
	other := table.NewSynthetic(disk.NewManager(device.NewSSD(env, device.DefaultSSDConfig())), "u", 50000, 33, 5)
	perturb := map[string]func(*Config, *Input){
		"table":        func(_ *Config, in *Input) { in.Table = other },
		"index":        func(_ *Config, in *Input) { in.Index = nil },
		"stats":        func(_ *Config, in *Input) { in.Stats = stats.BuildHistogram(in.Table, 8) },
		"pool":         func(_ *Config, in *Input) { in.Pool = buffer.NewPool(env, 64) },
		"model":        func(c *Config, _ *Input) { c.Model = f.dtt },
		"cores":        func(c *Config, _ *Input) { c.Cores++ },
		"poolPages":    func(c *Config, _ *Input) { c.PoolPages++ },
		"queueBudget":  func(c *Config, _ *Input) { c.QueueBudget++ },
		"shareParties": func(c *Config, _ *Input) { c.ShareParties++ },
		"grid":         func(c *Config, _ *Input) { c.PrefetchDepths, c.GridKey = []int{4}, "" },
	}
	kt := reflect.TypeOf(shapeKey{})
	if kt.NumField() != len(perturb) {
		t.Fatalf("shapeKey has %d fields, this test perturbs %d", kt.NumField(), len(perturb))
	}
	key := newShapeKey(&cfg, &in)
	if !key.matches(&cfg, &in) {
		t.Fatal("a key does not match the config and input it was built from")
	}
	for i := 0; i < kt.NumField(); i++ {
		name := kt.Field(i).Name
		set, ok := perturb[name]
		if !ok {
			t.Errorf("shapeKey.%s has no perturbation here", name)
			continue
		}
		c, q := cfg, in
		set(&c, &q)
		moved := newShapeKey(&c, &q)
		for j := 0; j < kt.NumField(); j++ {
			if same := reflect.ValueOf(moved).Field(j).Equal(reflect.ValueOf(key).Field(j)); same == (i == j) {
				t.Errorf("perturbing %s: field %s moved=%t", name, kt.Field(j).Name, !same)
			}
		}
		if got, want := key.matches(&c, &q), moved == key; got != want || got {
			t.Errorf("perturbing %s: matches=%t, key equality=%t; want both false", name, got, want)
		}
		if moved.matches(&cfg, &in) {
			t.Errorf("perturbing %s: the perturbed key matches the original config", name)
		}
	}
}

// TestEntryRanksComparesShapes: a fallback leaves a band's entry in place
// only when the entry holds its ranking — the same winner and runner
// shapes at the same epoch. Costs, estimates and depth may differ, since a
// non-stable entry's plans are re-priced from their shapes; anything
// costShape reads may not.
func TestEntryRanksComparesShapes(t *testing.T) {
	w := Plan{Method: exec.IndexScan, Degree: 8, Prefetch: 4, Depth: 32, TotalMicros: 100}
	r := Plan{Method: exec.FullScan, Degree: 4, Depth: 5, TotalMicros: 105}
	e := &bandEntry{winner: w, runner: r, hasRunner: true, epoch: 7}
	priced := func(p Plan) Plan { p.TotalMicros, p.EstRows, p.IOMicros = p.TotalMicros*2, 12, 3; return p }
	if !e.ranks(&top2{winner: priced(w), runner: priced(r), hasRunner: true, n: 9}, 7) {
		t.Error("a re-priced ranking of the same shapes at the same epoch is not the entry's")
	}
	moves := map[string]func(t *top2, epoch *uint64){
		"epoch":            func(_ *top2, epoch *uint64) { *epoch++ },
		"no runner":        func(t *top2, _ *uint64) { t.hasRunner = false },
		"winner method":    func(t *top2, _ *uint64) { t.winner.Method = exec.FullScan },
		"winner degree":    func(t *top2, _ *uint64) { t.winner.Degree = 16 },
		"winner prefetch":  func(t *top2, _ *uint64) { t.winner.Prefetch = 8 },
		"winner shared":    func(t *top2, _ *uint64) { t.winner.Shared = true },
		"runner method":    func(t *top2, _ *uint64) { t.runner.Method = exec.IndexScan },
		"runner degree":    func(t *top2, _ *uint64) { t.runner.Degree = 8 },
		"runner shared":    func(t *top2, _ *uint64) { t.runner.Shared = true },
		"winner is runner": func(t *top2, _ *uint64) { t.winner, t.runner = t.runner, t.winner },
	}
	for name, move := range moves {
		top, epoch := top2{winner: w, runner: r, hasRunner: true}, e.epoch
		move(&top, &epoch)
		if e.ranks(&top, epoch) {
			t.Errorf("%s: the entry claims a ranking it does not hold", name)
		}
	}
}

// TestParamCacheBindsConstantsWithinBand is the tentpole behaviour: queries
// with different constants but the same shape and selectivity band are
// served from one cached entry, each with its own cardinality estimate.
func TestParamCacheBindsConstantsWithinBand(t *testing.T) {
	cfg, in, f := paramFixture(t)
	// Deep index-scan territory, far from any crossover: band 9 covers
	// (0.098%, 0.195%].
	in.Lo, in.Hi = rangeFor(f.in.Table, 0.0015)
	pc := NewParamCache()

	first := pc.Choose(cfg, in)
	if s := pc.Stats(); s.Misses != 1 || s.Hits != 0 {
		t.Fatalf("first lookup: %+v, want 1 miss", s)
	}

	// Same band, different constants.
	rows := float64(in.Table.Rows())
	for i, sel := range []float64{0.001, 0.0012, 0.0018} {
		q := in
		q.Lo, q.Hi = rangeFor(f.in.Table, sel)
		q.Lo += int64(i) // shift the window; width fixes the selectivity
		q.Hi += int64(i)
		got := pc.Choose(cfg, q)
		if got.Method != first.Method || got.Degree != first.Degree {
			t.Errorf("sel=%.4f: served %v, cached shape was %v", sel, got, first)
		}
		wantRows := selectivity(&q, q.Lo, q.Hi) * rows
		if math.Abs(got.EstRows-wantRows) > 0.5 {
			t.Errorf("sel=%.4f: EstRows %.1f, want rebound %.1f", sel, got.EstRows, wantRows)
		}
	}
	if s := pc.Stats(); s.Misses != 1 || s.Hits != 3 {
		t.Errorf("after 3 same-band lookups: %+v, want 1 miss + 3 hits", s)
	}
}

func TestParamCacheSeparatesBandsAndShapes(t *testing.T) {
	cfg, in, f := paramFixture(t)
	pc := NewParamCache()

	// Distant bands are distinct entries.
	for _, sel := range []float64{0.01, 0.1, 0.0001} {
		q := in
		q.Lo, q.Hi = rangeFor(f.in.Table, sel)
		pc.Choose(cfg, q)
	}
	if s := pc.Stats(); s.Misses != 3 {
		t.Errorf("3 distant selectivities: %+v, want 3 misses", s)
	}
	if pc.Len() != 1 {
		t.Errorf("one shape expected, cache holds %d", pc.Len())
	}

	// A different grid is a different shape.
	gridCfg := cfg
	gridCfg.PrefetchDepths = []int{4, 16}
	gridCfg.GridKey = GridKey(gridCfg.Degrees, gridCfg.PrefetchDepths)
	pc.Choose(gridCfg, in)
	if pc.Len() != 2 {
		t.Errorf("second grid: cache holds %d shapes, want 2", pc.Len())
	}

	// So is a different queue budget (the broker's fair shares).
	leaseCfg := cfg
	leaseCfg.QueueBudget = 2
	if got := pc.Choose(leaseCfg, in); got.Degree > 2 {
		t.Errorf("budget 2 served degree %d", got.Degree)
	}
	if pc.Len() != 3 {
		t.Errorf("third shape: cache holds %d, want 3", pc.Len())
	}
}

func TestParamCacheRevalidatesOnEpochDrift(t *testing.T) {
	cfg, in, _ := paramFixture(t)
	pc := NewParamCache()
	pc.Choose(cfg, in)

	// Residency drift: warm 100 heap pages, bumping the pool epoch. The
	// memo would invalidate everything; the param cache re-prices only
	// winner vs. runner-up and keeps the entry when the winner survives.
	for p := int64(0); p < 100; p++ {
		in.Pool.Prefetch(in.Table.File(), p)
	}
	got := pc.Choose(cfg, in)
	s := pc.Stats()
	if s.Revalidations != 1 && s.Fallbacks < 1 {
		t.Fatalf("epoch drift neither revalidated nor re-enumerated: %+v", s)
	}
	// Whatever path it took, the served plan must match a fresh full
	// optimization at the current residency... up to the uncertainty
	// margin the cache is allowed to absorb.
	full := Choose(cfg, in)
	if got != full && got.TotalMicros/full.TotalMicros-1 > greedyMargin {
		t.Errorf("after drift served %v, full optimization %v", got, full)
	}

	// A second lookup at the new epoch is a plain hit again.
	before := pc.Stats().Hits
	pc.Choose(cfg, in)
	if pc.Stats().Hits != before+1 {
		t.Errorf("post-drift lookup did not hit: %+v", pc.Stats())
	}
}

func TestParamCacheResetAndBound(t *testing.T) {
	cfg, in, _ := paramFixture(t)
	pc := NewParamCache()

	// Shape churn far past the cap: every queue budget is its own shape.
	for b := 1; b <= maxShapes+50; b++ {
		c := cfg
		c.QueueBudget = b
		pc.Choose(c, in)
	}
	if n := pc.Len(); n > maxShapes {
		t.Errorf("cache grew to %d shapes, cap is %d", n, maxShapes)
	}

	pc.Reset()
	if pc.Len() != 0 {
		t.Error("Reset left shapes behind")
	}
	if s := pc.Stats(); s != (CacheStats{}) {
		t.Errorf("Reset left counters: %+v", s)
	}
	if got := pc.Choose(cfg, in); got != Choose(cfg, in) &&
		got.TotalMicros/Choose(cfg, in).TotalMicros-1 > 0.05 {
		t.Error("post-Reset lookup served a bad plan")
	}
}

// TestParamCacheStableHitAllocs gates the serving hot path: a band hit
// binds constants with zero heap allocations — on a band-stable entry and
// on one that re-prices winner against runner — while the lookups alternate
// between three shapes, as a serving tier's do (plan_serving cycles exactly
// these option sets). A cache that remembers only the last shape passes
// this with one shape and allocates on every lookup with two. Building a
// shape key with a precomputed GridKey allocates nothing either (the fix
// for the fmt.Sprint-per-lookup regression).
func TestParamCacheStableHitAllocs(t *testing.T) {
	cfg, in, f := paramFixture(t)
	shapes := [3]Config{cfg, cfg, cfg}
	shapes[1].QueueBudget = 8
	shapes[2].ShareParties = 4

	// hitsAs reports whether a repeat lookup of q under c is a hit on an
	// entry of the given stability.
	hitsAs := func(c Config, q Input, stable bool) bool {
		pc := NewParamCache()
		pc.Choose(c, q) // the miss
		pc.Choose(c, q)
		e := pc.bandSetFor(&c, &q).slots[selBand(selectivity(&q, q.Lo, q.Hi))].Load()
		return e.stable == stable && pc.Stats().Hits == 1
	}
	for _, stable := range []bool{true, false} {
		// One predicate per shape that it serves with this kind of hit.
		var qs [len(shapes)]Input
		for j, c := range shapes {
			found := false
			for sel := 1e-4; sel < 1 && !found; sel *= 1.1 {
				qs[j] = in
				qs[j].Lo, qs[j].Hi = rangeFor(f.in.Table, sel)
				found = hitsAs(c, qs[j], stable)
			}
			if !found {
				t.Fatalf("shape %d: no selectivity hits a stable=%t entry", j, stable)
			}
		}
		pc := NewParamCache()
		for j, c := range shapes {
			pc.Choose(c, qs[j])
		}
		before, i := pc.Stats(), 0
		allocs := testing.AllocsPerRun(300, func() {
			pc.Choose(shapes[i%len(shapes)], qs[i%len(shapes)])
			i++
		})
		if allocs > 0 {
			t.Errorf("stable=%t hits, three shapes alternating: %.2f allocs/op, want 0", stable, allocs)
		}
		if after := pc.Stats(); after.Hits-before.Hits != int64(i) || after.Fallbacks != before.Fallbacks {
			t.Errorf("stable=%t: the measured lookups were not all hits: %+v → %+v", stable, before, after)
		}
	}

	if allocs := testing.AllocsPerRun(100, func() {
		newShapeKey(&cfg, &in)
	}); allocs > 0 {
		t.Errorf("newShapeKey with precomputed GridKey allocates %.1f/op, want 0", allocs)
	}
}

// TestGridKeyMatchesPerLookupComputation pins the precomputed-grid-key fix:
// a Config carrying GridKey must produce the same shape key as one building
// the string per lookup, for defaulted and explicit grids alike.
func TestGridKeyMatchesPerLookupComputation(t *testing.T) {
	cfg, in, _ := paramFixture(t)
	grids := []Config{
		{},
		{Degrees: []int{1, 4, 16}},
		{PrefetchDepths: []int{2, 8}},
		{Degrees: []int{2, 8}, PrefetchDepths: []int{4, 32}},
	}
	for _, g := range grids {
		lazy := cfg
		lazy.Degrees, lazy.PrefetchDepths, lazy.GridKey = g.Degrees, g.PrefetchDepths, ""
		pre := lazy
		pre.GridKey = GridKey(g.Degrees, g.PrefetchDepths)
		if newShapeKey(&pre, &in) != newShapeKey(&lazy, &in) {
			t.Errorf("grid %v/%v: precomputed key diverges from per-lookup key",
				g.Degrees, g.PrefetchDepths)
		}
	}
}

// TestMemoKeysOnLeasedQueueBudget: sessions plan queries under the broker's
// fair share, so a plan the cache holds under one queue budget must never
// serve another, and each budget replays from its own entry.
func TestMemoKeysOnLeasedQueueBudget(t *testing.T) {
	cfg, in, _ := paramFixture(t)
	pc := NewParamCache()

	budgets := []int{0, 2, 8}
	plans := make([]Plan, len(budgets))
	for i, b := range budgets {
		c := cfg
		c.QueueBudget = b
		plans[i] = pc.Choose(c, in)
	}
	if s := pc.Stats(); s.Hits != 0 || s.Misses != int64(len(budgets)) || pc.Len() != len(budgets) {
		t.Fatalf("stats = %+v over %d shapes; want %d misses in as many shapes", s, pc.Len(), len(budgets))
	}
	for i, b := range budgets {
		c := cfg
		c.QueueBudget = b
		if got := pc.Choose(c, in); got != plans[i] {
			t.Errorf("budget %d replay chose %v, first run chose %v", b, got, plans[i])
		}
		if b > 0 && plans[i].Degree > b {
			t.Errorf("budget %d cached a plan at degree %d", b, plans[i].Degree)
		}
	}
	if hits := pc.Stats().Hits; hits != int64(len(budgets)) {
		t.Fatalf("replays hit %d entries, want %d", hits, len(budgets))
	}
}

// TestMemoBoundedUnderEpochChurn: a long install/evict churn moves the pool
// epoch on every lookup, and once the heap is resident distinct predicates
// pile up at a frozen epoch. The cache keys on the shape alone — neither the
// epoch nor the constants — so it stays at one shape and one band entry,
// and the entry the churn left still serves.
func TestMemoBoundedUnderEpochChurn(t *testing.T) {
	cfg, in, _ := paramFixture(t)
	pc := NewParamCache()

	pages := in.Table.Pages()
	const churn = 3072
	for i := int64(0); i < churn; i++ {
		in.Pool.Prefetch(in.Table.File(), i%pages)
		q := in
		q.Lo, q.Hi = i, i+100
		pc.Choose(cfg, q)
	}
	s := pc.Stats()
	if pc.Len() != 1 || s.Misses != 1 || s.Hits+s.Fallbacks != churn-1 {
		t.Fatalf("after churn: %d shapes, %+v; want one shape, one miss, the rest served", pc.Len(), s)
	}
	q := in
	q.Lo, q.Hi = churn-1, churn-1+100
	pc.Choose(cfg, q)
	if pc.Stats().Hits+pc.Stats().Fallbacks != churn {
		t.Fatalf("the last entry no longer serves: %+v", pc.Stats())
	}
}

// TestMemoCountsOptimizationsOnReplay: a band hit serves an optimization,
// so it counts as one, and it leaves the caller's registry in place.
func TestMemoCountsOptimizationsOnReplay(t *testing.T) {
	cfg, in, _ := paramFixture(t)
	reg := obs.NewRegistry(sim.NewEnv(1))
	cfg.Obs = reg
	pc := NewParamCache()

	pc.Lookup(&cfg, &in)
	pc.Lookup(&cfg, &in)
	if cfg.Obs != reg {
		t.Fatal("a hit cleared the caller's registry")
	}
	if got := reg.Counter(obs.MetricOptOptimizations).Value(); got != 2 {
		t.Fatalf("opt.optimizations = %d after a miss and a hit, want 2", got)
	}
	if reg.Counter(obs.MetricOptBandHits).Value() != 1 || reg.Counter(obs.MetricOptBandMisses).Value() != 1 {
		t.Fatal("band hit/miss counters not published")
	}
}

// TestParamCacheConcurrentReaders drives one shared cache from host.Sweep
// workers — the race test behind the concurrent-reader tentpole claim (the
// opt package runs under -race at one, two and four threads in
// scripts/verify.sh). Obs stays nil: the registry
// is simulation-confined.
func TestParamCacheConcurrentReaders(t *testing.T) {
	cfg, in, f := paramFixture(t)
	pc := NewParamCache()

	// The last two straddle the index/full-scan crossover inside one band:
	// their lookups fall back, each either re-publishing the band's entry
	// or finding its own ranking there already.
	be := f.breakEven(t, f.qdtt)
	sels := []float64{0.0001, 0.001, 0.01, 0.05, 0.3, 1.0, be * 0.99, be * 1.01}
	if selBand(sels[6]) != selBand(sels[7]) {
		t.Fatalf("the crossover selectivities %g and %g straddle a band edge", sels[6], sels[7])
	}
	const lookups = 2000
	var served atomic.Int64
	host.Sweep(8, lookups, func(i int) {
		q := in
		q.Lo, q.Hi = rangeFor(f.in.Table, sels[i%len(sels)])
		q.Lo += int64(i % 7)
		q.Hi += int64(i % 7)
		p := pc.Choose(cfg, q)
		if p.TotalMicros <= 0 {
			t.Errorf("lookup %d served un-costed plan %v", i, p)
		}
		served.Add(1)
	})
	if served.Load() != lookups {
		t.Fatalf("served %d of %d lookups", served.Load(), lookups)
	}
	s := pc.Stats()
	if s.Hits+s.Misses+s.Fallbacks < lookups {
		t.Errorf("counters lost lookups: %+v", s)
	}
	if s.Hits < lookups/2 {
		t.Errorf("parameterized workload mostly missed: %+v", s)
	}
	if s.Fallbacks < int64(lookups/len(sels)) {
		t.Errorf("the crossover band's lookups did not fall back: %+v", s)
	}
}

// TestParamCacheColdConcurrentPlanning starts eight goroutines on one empty
// cache at once, all planning one shape at selectivities whose index scans
// overflow the pool: the shape's cache line — page-count constants
// included — is created, published in the front array and read while the
// others are still asking for it. Each selectivity has its band to itself,
// so whichever goroutine's miss decides a band, every lookup must be served
// the plan a single-threaded cache serves, bit for bit. scripts/verify.sh
// runs it under -race at one, two and four threads.
func TestParamCacheColdConcurrentPlanning(t *testing.T) {
	w := newStreamWorld("ssd")
	s := w.shape("prefetch")
	s.cfg.Obs = nil // simulation-confined

	var queries []Input
	var want []Plan
	for sel := 0.6; sel > 0.004; sel /= 2 { // one per band, all past the pool-fill point
		q := s.in
		q.Lo, q.Hi = rangeFor(q.Table, sel)
		queries = append(queries, q)
		want = append(want, NewParamCache().Choose(s.cfg, q))
	}

	pc := NewParamCache()
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < 200; i++ {
				j := (g + i) % len(queries)
				if got := pc.Choose(s.cfg, queries[j]); got != want[j] {
					t.Errorf("goroutine %d, lookup %d: served %v, single-threaded %v", g, i, got, want[j])
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	if pc.Len() != 1 {
		t.Errorf("one shape planned, cache holds %d", pc.Len())
	}
}
