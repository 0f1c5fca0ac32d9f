// Package opt implements the cost-based access-path optimizer the paper
// evaluates: given the probe query's predicate range, it enumerates full
// table scans and index scans over a range of parallel degrees, prices each
// candidate's CPU and I/O, and picks the cheapest.
//
// The only difference between the paper's "old" and "new" optimizers is the
// I/O model plugged in: the old one prices page reads with DTT(band) —
// oblivious to queue depth, so parallelism can only ever help CPU — while
// the new one uses QDTT(band, degree) and discovers that a parallel index
// scan's random I/O becomes dramatically cheaper on devices with internal
// parallelism. Everything else (CPU model, page-count estimation, plan
// enumeration) is shared, isolating the paper's claim.
package opt

import (
	"fmt"
	"math"
	"slices"

	"pioqo/internal/btree"
	"pioqo/internal/buffer"
	"pioqo/internal/cost"
	"pioqo/internal/exec"
	"pioqo/internal/obs"
	"pioqo/internal/stats"
	"pioqo/internal/table"
)

// Config fixes the optimizer's environment: the I/O cost model, the CPU
// cost constants (shared with the executor), and the machine shape.
type Config struct {
	// Model prices page I/O. A *cost.DTT here gives the paper's old
	// optimizer; a *cost.QDTT gives the new one.
	Model cost.Model

	// Costs are the per-operation CPU costs, identical to the executor's.
	Costs exec.CPUCosts

	// Cores is the number of logical cores; CPU work divides across at most
	// this many workers.
	Cores int

	// Degrees are the parallel degrees to enumerate. Empty means the
	// paper's 1, 2, 4, 8, 16, 32.
	Degrees []int

	// PoolPages is the buffer pool capacity: it bounds page re-reads in an
	// index scan's estimate, and the readahead window a full scan is priced
	// at (exec.ReadaheadWindow) is clamped against it as the executor's is.
	PoolPages int64

	// PrefetchDepths, when non-empty, additionally enumerates per-worker
	// prefetch depths for index scans. A plan with degree d and prefetch n
	// generates a device queue depth of roughly d·n (§3.3: "the expected
	// peak queue depth is Mn"), which is what the QDTT model is asked to
	// price. This lets the optimizer discover that a few workers with deep
	// prefetch can replace a large worker fleet.
	PrefetchDepths []int

	// QueueBudget, when positive, caps the device queue depth any single
	// plan may generate — the §4.3 "concurrent queries" control: with n
	// queries active, each gets roughly 1/n of the device's beneficial
	// queue depth. Zero means uncapped.
	QueueBudget int

	// ShareParties, when ≥ 2, is the number of concurrent queries (this one
	// included) interested in a full scan of the same table. The enumeration
	// then adds a shared-scan candidate: attach to the table's circulating
	// scan, ride one lap, and split the producer's sequential device work
	// N ways — the attach path costs one lap of I/O over N, not a private
	// copy of the table. 0 or 1 means no sharing is available.
	ShareParties int

	// GridKey, when non-empty, is the precomputed flattening of the
	// enumeration grid (see the GridKey function). The plan cache keys on it;
	// leaving it empty makes every lookup rebuild — and allocate — the
	// string from Degrees and PrefetchDepths.
	GridKey string

	// Obs, when set, records the plan cache's decisions and the opt.*
	// counters. Excluded from the cache key: recording never changes what
	// is cached.
	Obs *obs.Registry
}

// defaultDegrees is the paper's degree grid. Read-only: every user ranges
// over it.
var defaultDegrees = []int{1, 2, 4, 8, 16, 32}

func (c *Config) degrees() []int {
	if len(c.Degrees) > 0 {
		return c.Degrees
	}
	return defaultDegrees
}

// GridKey flattens an enumeration grid — degrees and prefetch depths, with
// the same defaulting as Config — into the string the plan cache keys on.
// Compute it once when the Config's grid is fixed and store it in
// Config.GridKey to keep cache lookups allocation-free.
func GridKey(degrees, prefetchDepths []int) string {
	return fmt.Sprint((&Config{Degrees: degrees}).degrees(), prefetchDepths)
}

func (c *Config) gridKey() string {
	if c.GridKey != "" {
		return c.GridKey
	}
	return fmt.Sprint(c.degrees(), c.PrefetchDepths)
}

// Input is one optimization request: the table, its C2 index, the live
// buffer pool (consulted for residency statistics, as SQL Anywhere does),
// optional column statistics, and the predicate range.
type Input struct {
	Table table.Table
	Index *btree.Index
	Pool  *buffer.Pool

	// Stats, when present, supplies histogram-based cardinality estimates;
	// otherwise the estimator assumes C2 is uniform over its domain (exact
	// for the paper's workloads).
	Stats *stats.Histogram

	Lo,
	Hi int64
}

// Plan is a costed access-path candidate.
type Plan struct {
	Method exec.Method
	Degree int
	// Prefetch is the per-worker prefetch depth for index scans (0 when
	// prefetch planning is disabled).
	Prefetch int

	// Shared marks the circulating-scan attach path: the query rides the
	// table's shared producer instead of scanning privately, so its device
	// cost is one lap split over the attached parties.
	Shared bool
	// Depth is the device queue depth the plan was priced at, under the
	// queue budget: a full scan's readahead window, an index scan's degree
	// × prefetch. A shared rider issues no device work of its own and has
	// depth 0. It is what the plan can turn into throughput, so it is the
	// most queue-depth credits admission need lease the query. An int32
	// beside Shared fills its padding: plan caches and enumerations hold
	// plans by the thousand, and a wider field grows every one of them.
	Depth int32

	// EstRows is the estimated number of matching rows.
	EstRows float64
	// EstPageIO is the estimated number of page reads.
	EstPageIO float64
	// IOMicros and CPUMicros are the estimated component times; TotalMicros
	// is the plan cost the optimizer ranks by.
	IOMicros    float64
	CPUMicros   float64
	TotalMicros float64
}

func (p Plan) String() string {
	name := p.Method.String()
	if p.Degree > 1 {
		name = "P" + name + fmt.Sprint(p.Degree)
	}
	if p.Prefetch > 0 {
		name += fmt.Sprintf("+pf%d", p.Prefetch)
	}
	if p.Shared {
		name += "+shared"
	}
	return fmt.Sprintf("%s cost=%.0fus (io=%.0fus cpu=%.0fus rows=%.0f pages=%.0f)",
		name, p.TotalMicros, p.IOMicros, p.CPUMicros, p.EstRows, p.EstPageIO)
}

// Spec converts the chosen plan into an executable scan spec.
func (p Plan) Spec(in Input) exec.Spec {
	return exec.Spec{
		Table:             in.Table,
		Index:             in.Index,
		Lo:                in.Lo,
		Hi:                in.Hi,
		Method:            p.Method,
		Degree:            p.Degree,
		PrefetchPerWorker: p.Prefetch,
		Shared:            p.Shared,
	}
}

// Choose returns the cheapest plan for the input.
func Choose(cfg Config, in Input) Plan {
	cfg.validate()
	est := newEstimator(&cfg, &in)
	cc := bindCosting(&in, selectivity(&in, in.Lo, in.Hi), &est)
	return rankTop(&cfg, &in, &cc).winner
}

// Enumerate returns every candidate plan, cheapest first — the optimizer's
// "explain" view.
func Enumerate(cfg Config, in Input) []Plan {
	cfg.validate()
	est := newEstimator(&cfg, &in)
	cc := bindCosting(&in, selectivity(&in, in.Lo, in.Hi), &est)
	var buf [maxCandidates]Plan
	return slices.Clone(enumerate(&cfg, &in, &cc, buf[:0]))
}

func (c *Config) validate() {
	if c.Model == nil {
		panic("opt: Config.Model is nil")
	}
	if c.Cores <= 0 {
		panic("opt: Config.Cores must be positive")
	}
}

// overBudget reports whether the queue budget rules degree d out. A serial
// plan always fits.
func (c *Config) overBudget(d int) bool {
	return c.QueueBudget > 0 && d > c.QueueBudget && d > 1
}

// maxCandidates is the most candidates the engine's grid enumerates: 6
// degrees × 7 methods (full scan, index scan, five prefetch depths) and the
// shared lap. A ranking whose caller reads only its top goes into a
// [maxCandidates]Plan on the stack (rankTop); a wider custom grid spills to
// the heap through append.
const maxCandidates = 43

// rankTop ranks the full enumeration at the bound costing on its own stack
// and returns the top of it: what stateless Choose, greedyPlan's margin
// trip and the parameterized cache's crossover fallback keep. It stays out
// of line so that the 3 KB buffer is a frame only while a ranking runs, not
// on every hit path that calls it.
//
//go:noinline
func rankTop(cfg *Config, in *Input, cc *costing) top2 {
	var buf [maxCandidates]Plan
	return pickTop(enumerate(cfg, in, cc, buf[:0]))
}

// enumerate prices every candidate at the bound costing and ranks them into
// buf, cheapest first, ties in candidate order. It is the one full
// enumeration: the stateless entry points and the parameterized cache's
// crossover fallbacks all rank through it, each bringing the costing it has
// already bound and a stack buffer. Only Enumerate, which hands the list to
// its caller, copies it to the heap.
func enumerate(cfg *Config, in *Input, cc *costing, buf []Plan) []Plan {
	plans := buf[:0]
	// The shared candidate goes first: when a CPU-bound shared lap ties a
	// serial private scan on total cost, the stable sort keeps the shared
	// plan ahead — at equal price, riding the circulation frees the device
	// for everyone else.
	if cfg.ShareParties >= 2 {
		plans = append(plans, costSharedScan(cfg, in, cc))
	}
	for _, d := range cfg.degrees() {
		if cfg.overBudget(d) {
			continue
		}
		plans = append(plans, costFullScan(cfg, in, cc, d))
		if in.Index == nil {
			continue
		}
		plans = append(plans, costIndexScan(cfg, in, cc, d, 0))
		for _, pf := range cfg.PrefetchDepths {
			if pf > 0 {
				plans = append(plans, costIndexScan(cfg, in, cc, d, pf))
			}
		}
	}
	if len(plans) == 0 {
		// A queue budget below every degree still permits serial plans.
		plans = append(plans, costFullScan(cfg, in, cc, 1))
		if in.Index != nil {
			plans = append(plans, costIndexScan(cfg, in, cc, 1, 0))
		}
	}
	// A stable insertion sort: at most maxCandidates on the engine's grid,
	// usually 12, and no reflection-built swapper.
	for i := 1; i < len(plans); i++ {
		p := plans[i]
		j := i
		for ; j > 0 && p.TotalMicros < plans[j-1].TotalMicros; j-- {
			plans[j] = plans[j-1]
		}
		plans[j] = p
	}
	cfg.Obs.Counter(obs.MetricOptOptimizations).Inc()
	cfg.Obs.Counter(obs.MetricOptPlansEnumerated).Add(int64(len(plans)))
	return plans
}

// costing is the context one query's constants bind: the estimated
// matching-row count, the heap file's pool-resident fraction and, behind
// heapPages, the heap page counts those rows cost. All are pure functions
// of the input and the table's shape, and every candidate of an
// enumeration — |degrees| × |methods| × |prefetch| of them — multiplies the
// same numbers by its own page price, so each is computed once per bound
// costing, through the same expressions a per-candidate evaluation used:
// every plan cost is bit-identical.
type costing struct {
	matched  float64 // estimated rows matched by [Lo, Hi]
	resident float64 // fraction of the heap file already pooled; 0 without a pool

	// est prices matched rows in heap page reads. reads is its answer,
	// valid once priced is set: full and shared scans never ask, so a
	// costing that prices only those never evaluates Yao's formula.
	est    *cost.PageEstimator
	reads  float64
	priced bool

	// position is what a sequential pass pays to get to its first page,
	// valid once positioned is set: every degree's full scan owes the same.
	position   float64
	positioned bool
}

// newEstimator folds the page-count constants of the input's table behind
// the configured pool.
func newEstimator(cfg *Config, in *Input) cost.PageEstimator {
	// Leaf pages and the scan's own re-visited heap pages compete for the
	// pool; ignore that second-order effect and use the configured size.
	return cost.NewPageEstimator(in.Table.Pages(), in.Table.RowsPerPage(), cfg.PoolPages)
}

// bindCosting builds the costing context for this query's actual constants:
// the estimated matched rows at the given selectivity and the pool's
// current residency.
func bindCosting(in *Input, sel float64, est *cost.PageEstimator) costing {
	cc := costing{matched: sel * float64(in.Table.Rows()), est: est}
	if in.Pool != nil {
		cc.resident = residentFraction(in.Pool, in.Table.File(), in.Pool.Resident(in.Table.File()))
	}
	return cc
}

// heapPages returns the page reads an index scan of the matched rows issues
// (pool re-reads included), evaluating the estimator on first use.
func (cc *costing) heapPages() float64 {
	if !cc.priced {
		cc.reads, cc.priced = cc.est.Expected(int64(cc.matched+0.5)), true
	}
	return cc.reads
}

// Selectivity is the optimizer's estimate of the fraction of in's rows that
// [in.Lo, in.Hi] matches: every candidate's EstRows is it times the rows.
func Selectivity(in *Input) float64 { return selectivity(in, in.Lo, in.Hi) }

// selectivity estimates the fraction of rows matched by [lo, hi]: from the
// histogram when one is supplied, else under the uniform-distribution
// assumption.
func selectivity(in *Input, lo, hi int64) float64 {
	if in.Stats != nil {
		return in.Stats.Selectivity(lo, hi)
	}
	d := in.Table.KeyDomain()
	if hi >= d {
		hi = d - 1
	}
	if lo < 0 {
		lo = 0
	}
	if hi < lo {
		return 0
	}
	return float64(hi-lo+1) / float64(d)
}

// residentFraction reports how much of a file the pool already caches.
func residentFraction(pool *buffer.Pool, file interface{ Pages() int64 }, resident int64) float64 {
	if pool == nil || file.Pages() == 0 {
		return 0
	}
	f := float64(resident) / float64(file.Pages())
	if f > 1 {
		f = 1
	}
	return f
}

// scanDepth is the device queue depth a full scan at degree d is priced at:
// the block reads the executor's readahead has outstanding (the band-1 row is
// calibrated in that shape), under the queue budget. The fleet is not the
// depth — the workers consume pages the prefetcher already asked for — and
// enters only through the pool clamp, which trades window for pins.
func (c *Config) scanDepth(d int) int {
	_, inFlight := exec.ReadaheadWindow(int(c.PoolPages), d)
	return capDepth(c, inFlight)
}

// sequentialIO prices one pass over pageIO of t's heap pages by a scan whose
// window keeps depth block reads in flight (scanDepth): the pages at the
// sequential band's price for that depth, and one random access to get
// there. The band-1 row is a steady-state price — calibration leaves out the
// read that positions the head, which a scan pays once, not once per block —
// so the pass owes that read here. It is what separates a full scan of a
// small table from a handful of index probes on a disk.
func (cc *costing) sequentialIO(c *Config, t table.Table, pageIO float64, depth int) float64 {
	if pageIO <= 0 {
		return 0
	}
	if !cc.positioned {
		cc.position, cc.positioned = c.Model.PageCost(t.Pages(), 1), true
	}
	return pageIO*c.Model.PageCost(1, depth) + cc.position
}

// startupMicros is what spawning a fleet of degree d adds to a plan: every
// worker of a parallel fleet charges WorkerStartup to its own CPU budget, so
// the fleet pays it Cores at a time, not one worker after another. A lone
// worker is the query's own thread and pays nothing.
func (c *Config) startupMicros(d int) float64 {
	if d <= 1 {
		return 0
	}
	return float64(d) * c.Costs.WorkerStartup.Micros() / float64(min(d, c.Cores))
}

// costFullScan prices FTS/PFTS with degree d. The scan reads the whole heap
// sequentially (band 1 in DTT terms) at its readahead window's depth; its
// CPU evaluates every row. I/O and CPU overlap through prefetching, so the
// runtime estimate is their max, plus fleet startup.
func costFullScan(cfg *Config, in *Input, cc *costing, d int) Plan {
	t := in.Table
	pages := float64(t.Pages())
	rows := float64(t.Rows())
	matched := cc.matched

	pageIO := pages * (1 - cc.resident)
	depth := cfg.scanDepth(d)
	io := cc.sequentialIO(cfg, t, pageIO, depth)

	workers := d
	if workers > cfg.Cores {
		workers = cfg.Cores
	}
	cpu := (pages*float64(cfg.Costs.PerPage.Micros()) +
		rows*float64(cfg.Costs.PerRow.Micros())) / float64(workers)
	startup := cfg.startupMicros(d)

	total := maxf(io, cpu) + startup
	return Plan{
		Method: exec.FullScan, Degree: d, Depth: int32(depth),
		EstRows: matched, EstPageIO: pageIO,
		IOMicros: io, CPUMicros: cpu + startup, TotalMicros: total,
	}
}

// costSharedScan prices attaching to the table's circulating scan with
// ShareParties riders. The producer reads the whole heap sequentially once
// per lap in the same blocks a serial private scan's readahead would, so
// each rider's share of the device work is one lap at that window's price
// over N — and it needs no queue-depth credits of its own.
// The rider's CPU is serial: it consumes pushed batches on one process,
// evaluating every row, exactly like a degree-1 full scan. No worker
// startup: attaching is a registry append, not a fleet spawn.
func costSharedScan(cfg *Config, in *Input, cc *costing) Plan {
	t := in.Table
	pages := float64(t.Pages())
	rows := float64(t.Rows())

	pageIO := pages * (1 - cc.resident)
	io := cc.sequentialIO(cfg, t, pageIO, cfg.scanDepth(1)) / float64(cfg.ShareParties)

	cpu := pages*float64(cfg.Costs.PerPage.Micros()) +
		rows*float64(cfg.Costs.PerRow.Micros())

	return Plan{
		Method: exec.FullScan, Degree: 1, Shared: true,
		EstRows: cc.matched, EstPageIO: pageIO / float64(cfg.ShareParties),
		IOMicros: io, CPUMicros: cpu, TotalMicros: maxf(io, cpu),
	}
}

// costIndexScan prices IS/PIS with degree d and per-worker prefetch depth
// pf (0 disables prefetching). The scan reads the qualifying index leaves
// plus one heap page per matching row, random within the heap extent
// (band = heap pages). Its device queue depth — the quantity QDTT prices
// and DTT ignores — is the degree alone without prefetching, and
// approximately degree × prefetch with it (§3.3's "expected peak queue
// depth is Mn"), but never more than the leaf and heap reads the range
// issues: a five-row range keeps at most six reads in flight whatever the
// fleet, and on a drive that orders its queue by access time pricing it at
// depth 32 would promise a gain no five reads can reach. A fleet without
// prefetching claims entries from one cursor and keeps its depth but where
// its queue drains (cost.Model's Drain): over its last depth − 1 reads, and
// at each leaf boundary, where the workers that claim the next leaf's
// entries all wait on its one read — so once a leaf page.
func costIndexScan(cfg *Config, in *Input, cc *costing, d, pf int) Plan {
	t := in.Table
	x := in.Index
	matched := cc.matched

	leafPages := matched/float64(x.LeafCap()) + 1
	descent := float64(x.Height() - 1)

	heapFetches := cc.heapPages()
	if in.Pool != nil {
		heapFetches *= 1 - cc.resident
	}

	depth := d
	if pf > 0 {
		depth = d * pf
	}
	depth = capDepth(cfg, min(depth, int(math.Ceil(heapFetches+leafPages))))
	pageIO := heapFetches + leafPages + descent
	band := t.Pages()
	io := pageIO * cfg.Model.PageCost(band, depth)
	if pf == 0 {
		io += cfg.Model.Drain(band, depth) * leafPages
	}

	workers := d
	if workers > cfg.Cores {
		workers = cfg.Cores
	}
	cpu := (leafPages*(cfg.Costs.PerPage.Micros()+float64(x.LeafCap())*cfg.Costs.PerEntry.Micros()) +
		matched*cfg.Costs.PerRowFetch.Micros()) / float64(workers)
	if pf > 0 {
		cpu += heapFetches * cfg.Costs.PerPrefetch.Micros() / float64(workers)
	}
	startup := cfg.startupMicros(d)

	total := maxf(io, cpu) + startup
	return Plan{
		Method: exec.IndexScan, Degree: d, Prefetch: pf, Depth: int32(depth),
		EstRows: matched, EstPageIO: pageIO,
		IOMicros: io, CPUMicros: cpu + startup, TotalMicros: total,
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
