package opt

import (
	"math"
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

	first := m.LookupAll(&cfg, &in)
	second := m.LookupAll(&cfg, &in)
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

	first := m.LookupAll(&cfg, &in)
	first[0].TotalMicros = -1
	first[0].Method = 99

	second := m.LookupAll(&cfg, &in)
	if second[0].TotalMicros == -1 || second[0].Method == 99 {
		t.Fatal("mutating a returned slice corrupted the cached entry")
	}
}

func TestMemoInvalidatesOnPoolEpoch(t *testing.T) {
	cfg, in, _ := memoFixture(t)
	m := NewMemo()

	m.LookupAll(&cfg, &in)
	// Any residency change — here a prefetch installing frames — bumps the
	// pool epoch and must force a fresh costing.
	for p := int64(0); p < 200; p++ {
		in.Pool.Prefetch(in.Table.File(), p)
	}
	m.LookupAll(&cfg, &in)
	if hits, misses := m.Stats(); hits != 0 || misses != 2 {
		t.Fatalf("stats after epoch bump = %d hits, %d misses; want 0, 2", hits, misses)
	}
}

func TestMemoKeySeparatesInputs(t *testing.T) {
	cfg, in, f := memoFixture(t)
	m := NewMemo()
	m.LookupAll(&cfg, &in)

	// Different predicate range.
	wider := in
	wider.Lo, wider.Hi = rangeFor(in.Table, 0.5)
	m.LookupAll(&cfg, &wider)

	// Different cost model (the old optimizer).
	oldCfg := cfg
	oldCfg.Model = f.dtt
	m.LookupAll(&oldCfg, &in)

	// Different enumeration grid.
	gridCfg := cfg
	gridCfg.PrefetchDepths = []int{4, 16}
	m.LookupAll(&gridCfg, &in)

	if hits, misses := m.Stats(); hits != 0 || misses != 4 {
		t.Fatalf("stats = %d hits, %d misses; want 0 hits, 4 misses", hits, misses)
	}
	if m.Len() != 4 {
		t.Fatalf("memo holds %d entries, want 4", m.Len())
	}

	// Each variant replays from its own entry.
	m.LookupAll(&cfg, &in)
	m.LookupAll(&oldCfg, &in)
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
		m.LookupAll(&cfg, &q)
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
	m.LookupAll(&cfg, &q)
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

	first := m.LookupAll(&cfg, &in)
	m.LookupAll(&cfg, &in)
	if cfg.Obs != reg {
		t.Fatal("a hit cleared the caller's registry")
	}

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

// samePlans reports the first plan at which two rankings differ, comparing
// every estimate bit for bit; -1 when they are identical.
func samePlans(a, b []Plan) int {
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	for i := range a {
		p, q := a[i], b[i]
		if p.Method != q.Method || p.Degree != q.Degree || p.Prefetch != q.Prefetch ||
			p.Shared != q.Shared || p.Depth != q.Depth {
			return i
		}
		for j, x := range [5]float64{p.EstRows, p.EstPageIO, p.IOMicros, p.CPUMicros, p.TotalMicros} {
			y := [5]float64{q.EstRows, q.EstPageIO, q.IOMicros, q.CPUMicros, q.TotalMicros}[j]
			if math.Float64bits(x) != math.Float64bits(y) {
				return i
			}
		}
	}
	return -1
}

// TestMemoReplayIsTheMissList: the memo keeps an enumeration's winner and
// size, not its list, so LookupAll on a hit ranks again at the costing the
// key binds. That list must be the miss's, bit for bit, and stateless
// Enumerate's, on every shape the plan stream exercises — and whether the
// miss came through LookupAll or Choose. It stays the caller's own copy.
func TestMemoReplayIsTheMissList(t *testing.T) {
	for _, dev := range []string{"ssd", "hdd"} {
		w := newStreamWorld(dev)
		// The warm shapes plan behind a pool holding a quarter of its
		// frames: the replay must bind the same residency as the miss.
		for p := int64(0); p < streamPool/4; p++ {
			w.warm.Prefetch(w.tab.File(), p*5%w.tab.Pages())
		}
		for _, s := range w.shapes {
			cfg := s.cfg
			cfg.Obs = nil
			for i := 0; i < 8; i++ {
				in := servingRange(s.in, i)
				m := NewMemo()
				miss := m.LookupAll(&cfg, &in)
				hit := m.LookupAll(&cfg, &in)
				if j := samePlans(hit, miss); j >= 0 {
					t.Fatalf("%s/%s range %d: the replay differs from the miss at plan %d:\n%v\n%v",
						dev, s.name, i, j, hit, miss)
				}
				if j := samePlans(hit, Enumerate(cfg, in)); j >= 0 {
					t.Fatalf("%s/%s range %d: the replay differs from stateless Enumerate at plan %d", dev, s.name, i, j)
				}
				if got := m.Choose(cfg, in); got != miss[0] {
					t.Fatalf("%s/%s range %d: the memo's winner %v, its list's %v", dev, s.name, i, got, miss[0])
				}

				hit[0].TotalMicros, hit[len(hit)-1].Method = -1, 99
				if j := samePlans(m.LookupAll(&cfg, &in), miss); j >= 0 {
					t.Fatalf("%s/%s range %d: mutating a replay changed the next one at plan %d", dev, s.name, i, j)
				}
				if hits, misses := m.Stats(); hits != 3 || misses != 1 {
					t.Fatalf("%s/%s range %d: %d hits, %d misses; want 3, 1", dev, s.name, i, hits, misses)
				}

				chosen := NewMemo()
				chosen.Choose(cfg, in)
				if j := samePlans(chosen.LookupAll(&cfg, &in), miss); j >= 0 {
					t.Fatalf("%s/%s range %d: a replay after Choose's miss differs at plan %d", dev, s.name, i, j)
				}
			}
		}
	}
}
