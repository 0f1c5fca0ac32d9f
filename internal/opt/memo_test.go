package opt

import (
	"reflect"
	"testing"

	"pioqo/internal/obs"
	"pioqo/internal/sim"
)

// memoInput returns a config+input pair the memo tests share.
func memoFixture(t *testing.T) (Config, Input, *fixture) {
	t.Helper()
	f := newFixture(t, "ssd", 50000, 33)
	cfg := f.cfg
	cfg.Model = f.qdtt
	in := f.in
	in.Lo, in.Hi = rangeFor(in.Table, 0.01)
	return cfg, in, f
}

func TestMemoReplaysIdenticalEnumeration(t *testing.T) {
	cfg, in, _ := memoFixture(t)
	m := NewMemo()

	first := m.Enumerate(cfg, in)
	second := m.Enumerate(cfg, in)
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("memo replay diverged:\nfirst  %v\nsecond %v", first, second)
	}
	if !reflect.DeepEqual(first, Enumerate(cfg, in)) {
		t.Fatal("memoized enumeration differs from direct Enumerate")
	}
	if hits, misses := m.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("stats = %d hits, %d misses; want 1, 1", hits, misses)
	}
	if got, want := m.Choose(cfg, in), Choose(cfg, in); got != want {
		t.Fatalf("memo chose %v, direct chose %v", got, want)
	}
}

func TestMemoReturnsDefensiveCopies(t *testing.T) {
	cfg, in, _ := memoFixture(t)
	m := NewMemo()

	first := m.Enumerate(cfg, in)
	first[0].TotalMicros = -1
	first[0].Method = 99

	second := m.Enumerate(cfg, in)
	if second[0].TotalMicros == -1 || second[0].Method == 99 {
		t.Fatal("mutating a returned slice corrupted the cached entry")
	}
}

func TestMemoInvalidatesOnPoolEpoch(t *testing.T) {
	cfg, in, _ := memoFixture(t)
	m := NewMemo()

	m.Enumerate(cfg, in)
	// Any residency change — here a prefetch installing frames — bumps the
	// pool epoch and must force a fresh costing.
	for p := int64(0); p < 200; p++ {
		in.Pool.Prefetch(in.Table.File(), p)
	}
	m.Enumerate(cfg, in)
	if hits, misses := m.Stats(); hits != 0 || misses != 2 {
		t.Fatalf("stats after epoch bump = %d hits, %d misses; want 0, 2", hits, misses)
	}
}

func TestMemoKeySeparatesInputs(t *testing.T) {
	cfg, in, f := memoFixture(t)
	m := NewMemo()
	m.Enumerate(cfg, in)

	// Different predicate range.
	wider := in
	wider.Lo, wider.Hi = rangeFor(in.Table, 0.5)
	m.Enumerate(cfg, wider)

	// Different cost model (the old optimizer).
	oldCfg := cfg
	oldCfg.Model = f.dtt
	m.Enumerate(oldCfg, in)

	// Different enumeration grid.
	gridCfg := cfg
	gridCfg.PrefetchDepths = []int{4, 16}
	m.Enumerate(gridCfg, in)

	if hits, misses := m.Stats(); hits != 0 || misses != 4 {
		t.Fatalf("stats = %d hits, %d misses; want 0 hits, 4 misses", hits, misses)
	}
	if m.Len() != 4 {
		t.Fatalf("memo holds %d entries, want 4", m.Len())
	}

	// Each variant replays from its own entry.
	m.Enumerate(cfg, in)
	m.Enumerate(oldCfg, in)
	if hits, _ := m.Stats(); hits != 2 {
		t.Fatalf("replays after warm-up: %d hits, want 2", hits)
	}

	m.Reset()
	if hits, misses := m.Stats(); hits != 0 || misses != 0 || m.Len() != 0 {
		t.Fatal("Reset left state behind")
	}
}

func TestMemoKeysOnLeasedQueueBudget(t *testing.T) {
	// Sessions plan queries under the broker's fair share: plans cached
	// under one budget must never serve a different one, and each budget
	// replays from its own entry.
	cfg, in, _ := memoFixture(t)
	m := NewMemo()

	budgets := []int{0, 2, 8}
	plans := make([]Plan, len(budgets))
	for i, b := range budgets {
		c := cfg
		c.QueueBudget = b
		plans[i] = m.Choose(c, in)
	}
	if hits, misses := m.Stats(); hits != 0 || misses != int64(len(budgets)) {
		t.Fatalf("stats = %d hits, %d misses; want 0, %d", hits, misses, len(budgets))
	}
	for i, b := range budgets {
		c := cfg
		c.QueueBudget = b
		if got := m.Choose(c, in); got != plans[i] {
			t.Errorf("budget %d replay chose %v, first run chose %v", b, got, plans[i])
		}
		if b > 0 && plans[i].Degree > b {
			t.Errorf("budget %d cached a plan at degree %d", b, plans[i].Degree)
		}
	}
	if hits, _ := m.Stats(); hits != int64(len(budgets)) {
		t.Fatalf("replays hit %d entries, want %d", hits, len(budgets))
	}
}

// TestMemoBoundedUnderEpochChurn is the unbounded-growth fix's gate: a long
// install/evict churn — every pool install bumps the epoch, stranding the
// previous epoch's entries forever — must keep the memo's size bounded.
func TestMemoBoundedUnderEpochChurn(t *testing.T) {
	cfg, in, _ := memoFixture(t)
	m := NewMemo()

	pages := in.Table.Pages()
	const churn = 3 * memoMaxEntries
	for i := int64(0); i < churn; i++ {
		// Install churn: while fresh heap pages remain every prefetch bumps
		// the residency epoch, stranding the previous iteration's entry on
		// a dead epoch (the stale-sweep case). Once the heap is resident the
		// epoch freezes and distinct predicates pile up live entries (the
		// full-reset case). Both phases must stay bounded.
		in.Pool.Prefetch(in.Table.File(), i%pages)
		q := in
		q.Lo, q.Hi = i, i+100
		m.Enumerate(cfg, q)
	}
	if n := m.Len(); n > memoMaxEntries {
		t.Fatalf("after churn the memo holds %d entries, cap is %d", n, memoMaxEntries)
	}
	if _, misses := m.Stats(); misses != churn {
		t.Fatalf("every churn lookup should miss; misses = %d, want %d", misses, churn)
	}

	// Bounding must never drop the entry just installed: the final
	// iteration's enumeration still replays.
	q := in
	q.Lo, q.Hi = churn-1, churn-1+100
	m.Enumerate(cfg, q)
	if hits, _ := m.Stats(); hits != 1 {
		t.Fatalf("freshly installed entry evicted by bounding; hits = %d", hits)
	}
}

// TestGridKeyMatchesPerLookupComputation pins the precomputed-grid-key fix:
// a Config carrying GridKey must produce the same memo key as one building
// the string per lookup, for defaulted and explicit grids alike.
func TestGridKeyMatchesPerLookupComputation(t *testing.T) {
	cfg, in, _ := memoFixture(t)
	grids := []Config{
		{},
		{Degrees: []int{1, 4, 16}},
		{PrefetchDepths: []int{2, 8}},
		{Degrees: []int{2, 8}, PrefetchDepths: []int{4, 32}},
	}
	for _, g := range grids {
		lazy := cfg
		lazy.Degrees, lazy.PrefetchDepths = g.Degrees, g.PrefetchDepths
		pre := lazy
		pre.GridKey = GridKey(g.Degrees, g.PrefetchDepths)
		if newMemoKey(&pre, &in) != newMemoKey(&lazy, &in) {
			t.Errorf("grid %v/%v: precomputed key diverges from per-lookup key",
				g.Degrees, g.PrefetchDepths)
		}
	}
}

func TestMemoCountsOptimizationsOnReplay(t *testing.T) {
	cfg, in, _ := memoFixture(t)
	reg := obs.NewRegistry(sim.NewEnv(1))
	cfg.Obs = reg
	m := NewMemo()

	first := m.Enumerate(cfg, in)
	m.Enumerate(cfg, in)

	if got := reg.Counter(obs.MetricOptOptimizations).Value(); got != 2 {
		t.Fatalf("opt.optimizations = %d after a miss and a hit, want 2", got)
	}
	if got := reg.Counter(obs.MetricOptPlansEnumerated).Value(); got != int64(2*len(first)) {
		t.Fatalf("opt.plans_enumerated = %d, want %d", got, 2*len(first))
	}
	if reg.Counter(obs.MetricOptMemoHits).Value() != 1 || reg.Counter(obs.MetricOptMemoMisses).Value() != 1 {
		t.Fatal("memo hit/miss counters not published")
	}
}
