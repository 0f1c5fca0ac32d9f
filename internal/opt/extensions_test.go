package opt

import (
	"testing"

	"pioqo/internal/exec"
)

func TestPrefetchPlanningPrefersFewerWorkers(t *testing.T) {
	// With prefetch planning on, a low-degree deep-prefetch index scan
	// should cost no more than the 32-worker no-prefetch plan: the queue
	// depth is the same and the worker startup overhead is lower.
	f := newFixture(t, "ssd", 200000, 33)
	cfg := f.cfg
	cfg.Model = f.qdtt
	cfg.PrefetchDepths = []int{8, 32}
	in := f.in
	in.Lo, in.Hi = rangeFor(in.Table, 0.001)

	best := Choose(cfg, in)
	if best.Method != exec.IndexScan {
		t.Fatalf("best plan %v, want an index scan", best)
	}
	if best.Prefetch == 0 {
		t.Errorf("best plan %v has no prefetch despite planning enabled", best)
	}
	if best.Degree >= 32 {
		t.Errorf("best plan %v uses a full worker fleet; prefetch should replace workers", best)
	}
}

func TestQueueBudgetCapsDegreesAndDepth(t *testing.T) {
	f := newFixture(t, "ssd", 100000, 33)
	cfg := f.cfg
	cfg.Model = f.qdtt
	cfg.QueueBudget = 8
	in := f.in
	in.Lo, in.Hi = rangeFor(in.Table, 0.001)

	plans := Enumerate(cfg, in)
	for _, p := range plans {
		if p.Degree > 8 {
			t.Errorf("plan %v exceeds queue budget 8", p)
		}
	}
	// Budgeted IS cost must be no cheaper than the unbudgeted equivalent
	// degree-8 plan (same depth) and the unbudgeted 32-deep plan must be
	// cheaper than the budgeted best.
	cfgFree := cfg
	cfgFree.QueueBudget = 0
	free := Choose(cfgFree, in)
	budgeted := Choose(cfg, in)
	if free.TotalMicros > budgeted.TotalMicros {
		t.Errorf("unbudgeted best (%v) costs more than budgeted best (%v)", free, budgeted)
	}
}

func TestQueueBudgetBelowAllDegreesStillPlans(t *testing.T) {
	f := newFixture(t, "ssd", 10000, 33)
	cfg := f.cfg
	cfg.Model = f.qdtt
	cfg.QueueBudget = 1
	cfg.Degrees = []int{2, 4, 8} // none admissible
	in := f.in
	in.Lo, in.Hi = rangeFor(in.Table, 0.01)
	plans := Enumerate(cfg, in)
	if len(plans) == 0 {
		t.Fatal("no plans under a tight queue budget")
	}
	for _, p := range plans {
		if p.Degree != 1 {
			t.Errorf("plan %v not serial under budget 1", p)
		}
	}
}

func TestPrefetchPlanSpecCarriesPrefetch(t *testing.T) {
	f := newFixture(t, "ssd", 10000, 33)
	in := f.in
	p := Plan{Method: exec.IndexScan, Degree: 4, Prefetch: 16}
	spec := p.Spec(in)
	if spec.PrefetchPerWorker != 16 || spec.Degree != 4 {
		t.Errorf("spec %+v lost prefetch/degree", spec)
	}
}

func TestPlanStringWithPrefetch(t *testing.T) {
	p := Plan{Method: exec.IndexScan, Degree: 4, Prefetch: 16}
	if got := p.String(); got[:10] != "PIS4+pf16 " {
		t.Errorf("String() = %q", got)
	}
}
