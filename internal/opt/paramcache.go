// Parameterized plan cache. The Memo keys on exact predicate constants and
// the exact pool epoch, so a serving tier re-planning one query *shape*
// millions of times with different constants gets a near-zero hit rate.
// The ParamCache keys on the shape alone — table/index/stats/model/machine/
// enumeration grid — and buckets the predicate's estimated selectivity into
// logarithmic bands: band b holds every query whose selectivity falls in
// (2^-(b+1), 2^-b]. Within a band the access-path choice is almost always
// the same; only the cardinality estimate moves. Constants are bound at
// lookup time: a hit re-prices nothing when the entry is band-stable, or at
// most the cached winner and its cross-family runner-up when it is not.
//
// Residency drift is handled the same way: instead of the memo's
// epoch-exact invalidate-everything, an epoch mismatch re-costs just the
// winner and runner-up at the current residency and keeps the entry when
// the winner still wins by more than the uncertainty margin — full
// re-enumeration happens only when the ranking actually flips or lands on
// a crossover.
//
// The cache is safe for concurrent readers and writers: host.Sweep workers
// and ExecuteConcurrent sessions share one instance. Entries are immutable
// once published (updates swap an atomic pointer), so the hot hit path is
// lock-free. Config.Obs is NOT thread-safe — concurrent callers must leave
// it nil; the single-threaded engine driver sets it.
package opt

import (
	"math"
	"sync"
	"sync/atomic"

	"pioqo/internal/btree"
	"pioqo/internal/buffer"
	"pioqo/internal/cost"
	"pioqo/internal/obs"
	"pioqo/internal/stats"
	"pioqo/internal/table"
)

// emptyBand is the sentinel band for zero-selectivity predicates; real
// bands are 0..emptyBand-1, so a bandSet holds emptyBand+1 slots.
const emptyBand = 63

// maxShapes bounds the number of cached query shapes. Shapes are few (one
// per table × plan-option combination), so hitting the cap means shape
// churn — objects being rebuilt — and the whole map is dropped
// deterministically rather than evicting in map-iteration order.
const maxShapes = 256

// selBand buckets an estimated selectivity into its logarithmic band:
// floor(-log2(sel)), clamped to [0, emptyBand-1], with emptyBand reserved
// for sel ≤ 0.
//
// With sel = frac·2^exp and frac in [½, 1) the band is -exp, read straight
// off the float — except at frac = ½, the band's open lower edge, where it
// is one more. The logarithm this replaces rounds: for frac within a few
// 1e-15 above ½ it, too, lands on the edge. So within 2⁻⁴⁰ of ½ — a
// thousand times further out than that rounding reaches — the logarithm
// still decides, and every selectivity keeps the band it always had.
func selBand(sel float64) int {
	if sel <= 0 {
		return emptyBand
	}
	if sel >= 1 {
		return 0
	}
	frac, exp := math.Frexp(sel)
	b := -exp
	if frac < 0.5+0x1p-40 {
		b = int(math.Floor(-math.Log2(sel)))
	}
	if b >= emptyBand {
		b = emptyBand - 1
	}
	return b
}

// bandEdges returns the band's selectivity extremes — the probe points for
// the stability test. Band b covers (2^-(b+1), 2^-b].
func bandEdges(band int) (lo, hi float64) {
	if band >= emptyBand {
		return 0, 0
	}
	hi = math.Pow(2, -float64(band))
	return hi / 2, hi
}

// shapeKey is a memoKey minus the constants: no lo/hi, no epoch. Everything
// left is fixed for a query shape's lifetime; object-valued fields key on
// identity exactly as in the memo.
type shapeKey struct {
	table table.Table
	index *btree.Index
	stats *stats.Histogram
	pool  *buffer.Pool

	model        cost.Model
	cores        int
	poolPages    int64
	queueBudget  int
	shareParties int
	grid         string
}

func newShapeKey(cfg *Config, in *Input) shapeKey {
	return shapeKey{
		table:        in.Table,
		index:        in.Index,
		stats:        in.Stats,
		pool:         in.Pool,
		model:        cfg.Model,
		cores:        cfg.Cores,
		poolPages:    cfg.PoolPages,
		queueBudget:  cfg.QueueBudget,
		shareParties: cfg.ShareParties,
		grid:         cfg.gridKey(),
	}
}

// matches reports whether k == newShapeKey(cfg, in) without building the
// right-hand key: a hit scans the front sets with it, and a key is a
// hundred-odd bytes to fill and compare. Scalars go first, then the
// pointers, then the interfaces, and the grid string last — it is the one
// field gridKey may have to format.
func (k *shapeKey) matches(cfg *Config, in *Input) bool {
	return k.cores == cfg.Cores && k.poolPages == cfg.PoolPages &&
		k.queueBudget == cfg.QueueBudget && k.shareParties == cfg.ShareParties &&
		k.index == in.Index && k.stats == in.Stats && k.pool == in.Pool &&
		k.table == in.Table && k.model == cfg.Model &&
		k.grid == cfg.gridKey()
}

// bandEntry is one band's cached decision. Immutable after publication.
type bandEntry struct {
	winner Plan
	// runner is the cheapest plan from a different access-path family —
	// the crossover competitor revalidation re-prices against. A shape
	// with a single family (no index, no sharing) has none.
	runner    Plan
	hasRunner bool

	// epoch pins the pool residency the entry was priced at.
	epoch uint64

	// stable means the winner beats the runner by more than the margin at
	// BOTH selectivity edges of the band (at the entry's residency), so a
	// same-epoch hit can skip re-pricing entirely.
	stable bool
}

// bandSet is one shape's cache line: the page-count constants and the
// crossover table shared by every band, plus one slot per selectivity band.
// key and est are fixed before the set is published; slots hold immutable
// entries behind atomic pointers, making lookups lock-free. prev holds the
// entry each slot held before its last fallback replaced it, so a band
// whose constants straddle a crossover swaps between its two rankings
// instead of allocating one per flip.
type bandSet struct {
	key   shapeKey
	est   cost.PageEstimator
	cross atomic.Pointer[crossover]
	slots [emptyBand + 1]atomic.Pointer[bandEntry]
	prev  [emptyBand + 1]atomic.Pointer[bandEntry]
}

func (s *bandSet) crossoverFor(cfg *Config, in *Input) *crossover {
	if cx := s.cross.Load(); cx != nil {
		return cx
	}
	cx := computeCrossover(cfg, in.Table.Pages())
	s.cross.Store(cx)
	return cx
}

// frontShapes is how many shapes are also published in the front array. A
// serving tier alternates between a handful of shapes (a table under two or
// three option sets); comparing a few keys beats hashing one.
const frontShapes = 4

// ParamCache is the concurrent parameterized plan cache. The zero value is
// not usable; call NewParamCache.
type ParamCache struct {
	mu     sync.RWMutex
	shapes map[shapeKey]*bandSet
	// front publishes the first frontShapes sets created since the map was
	// last emptied, in creation order: filled and cleared under mu, read
	// without it. A lookup scans it up to the first nil.
	front [frontShapes]atomic.Pointer[bandSet]

	hits          atomic.Int64
	misses        atomic.Int64
	revalidations atomic.Int64
	greedyPlans   atomic.Int64
	fallbacks     atomic.Int64
}

// NewParamCache returns an empty parameterized plan cache.
func NewParamCache() *ParamCache {
	return &ParamCache{shapes: make(map[shapeKey]*bandSet)}
}

// CacheStats is a snapshot of the cache's internal counters.
type CacheStats struct {
	// Hits served a query from a cached band entry: the stable O(1) path
	// or a winner/runner re-pricing that confirmed the cached winner.
	Hits int64
	// Misses saw a shape × band combination for the first time.
	Misses int64
	// Revalidations are hits that crossed a pool-epoch drift: the entry
	// was re-priced at the new residency and survived.
	Revalidations int64
	// GreedyPlans are misses the greedy fast path decided alone.
	GreedyPlans int64
	// Fallbacks are full enumerations forced by a crossover: a greedy
	// margin trip on miss, or a cached ranking that flipped on rebind.
	Fallbacks int64
}

// Stats snapshots the counters. Safe for concurrent use.
func (pc *ParamCache) Stats() CacheStats {
	return CacheStats{
		Hits:          pc.hits.Load(),
		Misses:        pc.misses.Load(),
		Revalidations: pc.revalidations.Load(),
		GreedyPlans:   pc.greedyPlans.Load(),
		Fallbacks:     pc.fallbacks.Load(),
	}
}

// Len reports how many query shapes are currently cached.
func (pc *ParamCache) Len() int {
	pc.mu.RLock()
	defer pc.mu.RUnlock()
	return len(pc.shapes)
}

// Reset drops every cached shape and zeroes the counters. Required when a
// keyed object mutates in place — above all when calibration swaps the
// cost model's contents.
func (pc *ParamCache) Reset() {
	pc.mu.Lock()
	pc.dropShapes()
	pc.mu.Unlock()
	pc.hits.Store(0)
	pc.misses.Store(0)
	pc.revalidations.Store(0)
	pc.greedyPlans.Store(0)
	pc.fallbacks.Store(0)
}

// dropShapes empties the map and the front array. Callers hold mu.
func (pc *ParamCache) dropShapes() {
	pc.shapes = make(map[shapeKey]*bandSet)
	for i := range pc.front {
		pc.front[i].Store(nil)
	}
}

// bandSetFor resolves the shape's cache line, creating it on first sight —
// the only time a lookup allocates. The front sets are matched field by
// field; the key is built only for the map, which is consulted for shapes
// past the front array and, at the cap, deterministically dropped whole.
func (pc *ParamCache) bandSetFor(cfg *Config, in *Input) *bandSet {
	for i := range pc.front {
		set := pc.front[i].Load()
		if set == nil {
			break
		}
		if set.key.matches(cfg, in) {
			return set
		}
	}
	key := newShapeKey(cfg, in)
	pc.mu.RLock()
	set, ok := pc.shapes[key]
	pc.mu.RUnlock()
	if ok {
		return set
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if set, ok = pc.shapes[key]; ok {
		return set
	}
	if len(pc.shapes) >= maxShapes {
		pc.dropShapes()
	}
	set = &bandSet{
		key: key,
		est: cost.NewPageEstimator(key.table.Pages(), key.table.RowsPerPage(), key.poolPages),
	}
	if n := len(pc.shapes); n < frontShapes {
		pc.front[n].Store(set)
	}
	pc.shapes[key] = set
	return set
}

// wins reports whether w beats r by more than the margin — the condition
// under which the cache trusts a cached ranking without re-enumerating.
func wins(w, r Plan) bool {
	return w.TotalMicros < r.TotalMicros &&
		r.TotalMicros-w.TotalMicros > greedyMargin*w.TotalMicros
}

// stableInBand probes the entry at both selectivity edges of its band (at
// the given residency): when the winner beats the runner by more than the
// margin at both extremes, same-epoch hits inside the band skip re-pricing.
// Edge probing is a heuristic — cost curves could in principle cross twice
// inside a band — but the planbench quality gate measures the realized
// agreement directly.
func stableInBand(cfg *Config, in *Input, set *bandSet, band int, resident float64, e *bandEntry) bool {
	if !e.hasRunner {
		// Single-family shape: with residency pinned by the epoch check,
		// re-pricing within the band cannot change the family, and the
		// winner's degree was chosen at this band's costs.
		return true
	}
	lo, hi := bandEdges(band)
	rows := float64(in.Table.Rows())
	for _, sel := range [2]float64{lo, hi} {
		cc := costing{matched: sel * rows, resident: resident, est: &set.est}
		if !wins(costShape(cfg, in, &cc, e.winner), costShape(cfg, in, &cc, e.runner)) {
			return false
		}
	}
	return true
}

// publish installs a freshly decided entry for the band, computing its
// stability at the current residency.
func publish(cfg *Config, in *Input, set *bandSet, band int, epoch uint64, resident float64, t *top2) {
	e := &bandEntry{winner: t.winner, runner: t.runner, hasRunner: t.hasRunner, epoch: epoch}
	e.stable = stableInBand(cfg, in, set, band, resident, e)
	set.slots[band].Store(e)
}

// sameShape reports whether two plans are one shape: what costShape
// re-prices a cached plan from.
func sameShape(a, b *Plan) bool {
	return a.Method == b.Method && a.Degree == b.Degree && a.Prefetch == b.Prefetch && a.Shared == b.Shared
}

// ranks reports whether the entry already holds the ranking t at epoch.
// Publishing t there would change nothing a lookup can observe: a fallback
// happens at the entry's epoch only when it is not stable, a non-stable
// entry's plans are only ever re-priced by shape, and stability is a
// function of the shapes and of the residency the epoch pins. The same
// holds for a slot's previous entry, which a fallback at its epoch replaced.
func (e *bandEntry) ranks(t *top2, epoch uint64) bool {
	return e.epoch == epoch && e.hasRunner == t.hasRunner &&
		sameShape(&e.winner, &t.winner) && (!e.hasRunner || sameShape(&e.runner, &t.runner))
}

// Choose is Lookup on copies of its arguments.
func (pc *ParamCache) Choose(cfg Config, in Input) Plan { return pc.Lookup(&cfg, &in) }

// Lookup returns the cheapest plan for the input through the parameterized
// cache: band hit → bind constants into the cached winner (O(1) when the
// entry is band-stable, winner-vs-runner re-pricing otherwise); band miss →
// greedy fast path with crossover fallback. cfg and in are only read. Safe
// for concurrent use when cfg.Obs is nil.
func (pc *ParamCache) Lookup(cfg *Config, in *Input) Plan {
	cfg.validate()
	sel := selectivity(in, in.Lo, in.Hi)
	band := selBand(sel)
	set := pc.bandSetFor(cfg, in)
	var epoch uint64
	if in.Pool != nil {
		epoch = in.Pool.Epoch()
	}

	if e := set.slots[band].Load(); e != nil {
		if e.stable && e.epoch == epoch {
			// Band-stable at unchanged residency: the cached shape wins
			// anywhere in the band. Rebind only the cardinality estimate.
			pc.hits.Add(1)
			cfg.Obs.Emit(obs.EvPlanBandHit, obs.NoQuery, int64(band), 1)
			w := e.winner
			w.EstRows = sel * float64(in.Table.Rows())
			return w
		}
		cc := bindCosting(in, sel, &set.est)
		w := costShape(cfg, in, &cc, e.winner)
		confirmed := false
		var r Plan
		if e.hasRunner {
			r = costShape(cfg, in, &cc, e.runner)
			confirmed = wins(w, r)
		} else {
			// Single-family shape: only residency can move the choice, and
			// the epoch check covers that.
			confirmed = e.epoch == epoch
		}
		if confirmed {
			pc.hits.Add(1)
			if e.epoch != epoch {
				// Band-tolerant revalidation: residency drifted, but the
				// winner still wins outside the margin — keep the shape,
				// re-pin the epoch.
				pc.revalidations.Add(1)
				ne := &bandEntry{winner: w, runner: r, hasRunner: e.hasRunner, epoch: epoch}
				ne.stable = stableInBand(cfg, in, set, band, cc.resident, ne)
				set.slots[band].Store(ne)
				cfg.Obs.Emit(obs.EvPlanRevalidate, obs.NoQuery, int64(band), 1)
			} else {
				cfg.Obs.Emit(obs.EvPlanBandHit, obs.NoQuery, int64(band), 0)
			}
			return w
		}
		// The cached ranking flipped or landed inside the margin: this
		// query sits on a crossover, so pay for the full enumeration, at
		// the costing already bound, ranked on this goroutine's stack: the
		// cache is shared, so no scratch list is. (enumerate counts the
		// optimization itself.)
		pc.fallbacks.Add(1)
		if e.epoch != epoch {
			cfg.Obs.Emit(obs.EvPlanRevalidate, obs.NoQuery, int64(band), 0)
		}
		t := rankTop(cfg, in, &cc)
		cfg.Obs.Emit(obs.EvGreedyFallback, obs.NoQuery, int64(band), int64(t.n))
		if !e.ranks(&t, epoch) {
			if p := set.prev[band].Load(); p != nil && p.ranks(&t, epoch) {
				set.slots[band].Store(p)
			} else {
				publish(cfg, in, set, band, epoch, cc.resident, &t)
			}
			set.prev[band].Store(e)
		}
		return t.winner
	}

	// First sight of this shape × band: decide through the greedy fast
	// path, falling back to full enumeration near crossovers.
	pc.misses.Add(1)
	cfg.Obs.Emit(obs.EvPlanBandMiss, obs.NoQuery, int64(band), 0)
	cc := bindCosting(in, sel, &set.est)
	t, fell := greedyPlan(cfg, in, &cc, set.crossoverFor(cfg, in))
	if fell {
		pc.fallbacks.Add(1)
		cfg.Obs.Emit(obs.EvGreedyFallback, obs.NoQuery, int64(band), int64(t.n))
	} else {
		pc.greedyPlans.Add(1)
		cfg.Obs.Emit(obs.EvGreedyPlan, obs.NoQuery, int64(band), int64(t.n))
	}
	publish(cfg, in, set, band, epoch, cc.resident, &t)
	return t.winner
}
