// Plan memoization. Probe-query optimization is pure: for a fixed cost
// model, machine shape, predicate range, and pool residency the enumeration
// always prices the same candidates to the same costs. Engines re-optimize
// the same parameterized probe constantly (the paper's sweeps re-plan every
// selectivity × device × concurrency point), so the memo caches each
// enumeration's winner and serves it until something the costs depend on
// changes.
//
// Residency is the only input that moves behind the optimizer's back; the
// memo keys on the pool's epoch — a counter the pool bumps on every install
// and eviction — so any residency change invalidates automatically without
// the memo subscribing to pool traffic.
package opt

import (
	"slices"

	"pioqo/internal/btree"
	"pioqo/internal/buffer"
	"pioqo/internal/cost"
	"pioqo/internal/obs"
	"pioqo/internal/stats"
	"pioqo/internal/table"
)

// memoKey captures every Enumerate input a plan's cost can depend on.
// Object-valued fields (table, index, stats, pool, model) key on identity:
// the engine owns these for a catalog's lifetime, and a rebuilt object may
// legitimately carry different contents. The key stays within 128 bytes,
// the most a map stores in its own slots: a wider key is boxed, one heap
// object per miss.
type memoKey struct {
	table table.Table
	index *btree.Index
	stats *stats.Histogram
	pool  *buffer.Pool
	lo    int64
	hi    int64

	// epoch pins the pool residency the cached costs were computed from;
	// 0 when the input carries no pool.
	epoch uint64

	model        cost.Model
	cores        int
	poolPages    int64
	queueBudget  int
	shareParties int

	// grid flattens the enumeration's shape — degrees and prefetch depths —
	// so configs enumerating different candidate sets never collide.
	grid string
}

func newMemoKey(cfg *Config, in *Input) memoKey {
	k := memoKey{
		table:        in.Table,
		index:        in.Index,
		stats:        in.Stats,
		pool:         in.Pool,
		lo:           in.Lo,
		hi:           in.Hi,
		model:        cfg.Model,
		cores:        cfg.Cores,
		poolPages:    cfg.PoolPages,
		queueBudget:  cfg.QueueBudget,
		shareParties: cfg.ShareParties,
		grid:         cfg.gridKey(),
	}
	if in.Pool != nil {
		k.epoch = in.Pool.Epoch()
	}
	return k
}

// Memo caches Enumerate results keyed on everything the costs depend on.
// It is not safe for concurrent use — optimization happens on the
// simulation driver, which is single-threaded.
type Memo struct {
	entries map[memoKey]memoEntry
	// estimators holds the folded page-count constants of every table shape
	// × pool size the memo has planned for: a miss prices its enumeration
	// with one Yao evaluation instead of re-deriving the constants.
	estimators map[estimatorKey]*cost.PageEstimator
	hits       int64
	misses     int64
}

// memoEntry is what the memo keeps of an enumeration: its winner and how
// many candidates it ranked. The ranked list itself is a pure function of
// the key (and of the CPU costs, which a memo's owner holds fixed), so
// Enumerate re-ranks it on a hit instead of holding it.
type memoEntry struct {
	winner Plan
	n      int
}

// estimatorKey is what a cost.PageEstimator is a pure function of.
type estimatorKey struct {
	pages       int64
	rowsPerPage int
	poolPages   int64
}

// NewMemo returns an empty plan memo.
func NewMemo() *Memo {
	return &Memo{
		entries:    make(map[memoKey]memoEntry),
		estimators: make(map[estimatorKey]*cost.PageEstimator),
	}
}

func (m *Memo) estimator(cfg *Config, in *Input) *cost.PageEstimator {
	key := estimatorKey{in.Table.Pages(), in.Table.RowsPerPage(), cfg.PoolPages}
	est, ok := m.estimators[key]
	if !ok {
		e := newEstimator(cfg, in)
		est = &e
		m.estimators[key] = est
	}
	return est
}

// LookupAll returns the ranked candidate list for the input, computing it
// on first sight and re-ranking it at the same costing afterwards: the list
// is bit-identical either way. The returned slice is a fresh copy — callers
// may reorder or mutate it freely. cfg and in are only read.
func (m *Memo) LookupAll(cfg *Config, in *Input) []Plan {
	key := newMemoKey(cfg, in)
	e, hit := m.entries[key]
	if hit {
		m.hit(cfg, e.n)
		quiet := *cfg
		quiet.Obs = nil // the hit event counted this optimization
		cfg = &quiet
	}
	cc := m.bind(cfg, in)
	var buf [maxCandidates]Plan
	plans := enumerate(cfg, in, &cc, buf[:0])
	if !hit {
		m.keep(cfg, &key, plans[0], len(plans))
	}
	return slices.Clone(plans)
}

// Choose is Lookup on copies of its arguments.
func (m *Memo) Choose(cfg Config, in Input) Plan { return m.Lookup(&cfg, &in) }

// Lookup returns the cheapest plan for the input through the memo. A miss
// ranks on the stack and keeps only the winner. cfg and in are only read:
// the engine plans through pointers, so a hit copies nothing but its plan.
func (m *Memo) Lookup(cfg *Config, in *Input) Plan {
	key := newMemoKey(cfg, in)
	if e, ok := m.entries[key]; ok {
		m.hit(cfg, e.n)
		return e.winner
	}
	cc := m.bind(cfg, in)
	t := rankTop(cfg, in, &cc)
	m.keep(cfg, &key, t.winner, t.n)
	return t.winner
}

// hit counts a lookup served from an entry that ranked n candidates.
func (m *Memo) hit(cfg *Config, n int) {
	m.hits++
	cfg.Obs.Emit(obs.EvPlanCacheHit, obs.NoQuery, int64(n), 0)
}

// bind binds the input's costing through the memo's page estimators.
func (m *Memo) bind(cfg *Config, in *Input) costing {
	cfg.validate()
	return bindCosting(in, selectivity(in, in.Lo, in.Hi), m.estimator(cfg, in))
}

// keep counts a miss that ranked n candidates and installs its entry.
func (m *Memo) keep(cfg *Config, key *memoKey, winner Plan, n int) {
	m.misses++
	cfg.Obs.Emit(obs.EvPlanCacheMiss, obs.NoQuery, int64(n), 0)
	m.bound()
	m.entries[*key] = memoEntry{winner: winner, n: n}
}

// memoMaxEntries bounds the memo. Entries keyed on a superseded pool epoch
// can never hit again — every pool install or eviction strands the whole
// epoch — so a long-running engine would otherwise grow the map without
// limit, one enumeration per residency change.
const memoMaxEntries = 1024

// bound keeps the memo under memoMaxEntries before an install: first sweep
// entries pinned to dead pool epochs (predicate-driven, so the surviving
// set is independent of map iteration order), then — if live entries alone
// exceed the cap — drop everything. Never evict an arbitrary entry: that
// would make hit/miss streams depend on map iteration order and break
// byte-identical replay.
func (m *Memo) bound() {
	if len(m.entries) < memoMaxEntries {
		return
	}
	for k := range m.entries {
		if k.pool != nil && k.epoch != k.pool.Epoch() {
			delete(m.entries, k)
		}
	}
	if len(m.entries) >= memoMaxEntries {
		clear(m.entries) // keeps the buckets for the next thousand
	}
}

// Stats reports how many lookups were served from a cached entry and how
// many priced one fresh.
func (m *Memo) Stats() (hits, misses int64) { return m.hits, m.misses }

// Len reports how many enumerations are currently cached.
func (m *Memo) Len() int { return len(m.entries) }

// Reset drops every cached enumeration and zeroes the counters. Callers
// must invalidate this way when a keyed object mutates in place — above
// all when a calibration swaps the cost model's contents.
func (m *Memo) Reset() {
	m.entries = make(map[memoKey]memoEntry)
	m.estimators = make(map[estimatorKey]*cost.PageEstimator)
	m.hits, m.misses = 0, 0
}
