package pioqo

import (
	"errors"
	"testing"
)

func newJoinSystem(t *testing.T) (*System, *Table, *Table) {
	t.Helper()
	sys := New(Config{Device: SSD, PoolPages: 2048})
	dim, err := sys.CreateTable("dim", 5000, 33)
	if err != nil {
		t.Fatal(err)
	}
	fact, err := sys.CreateTable("fact", 50000, 33)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Calibrate(CalibrationOptions{MaxReads: 640}); err != nil {
		t.Fatal(err)
	}
	return sys, dim, fact
}

func TestExecuteJoinBasics(t *testing.T) {
	sys, dim, fact := newJoinSystem(t)
	res, err := sys.ExecuteJoin(JoinQuery{
		Build: dim, Probe: fact, Low: 0, High: 499,
	}, Cold())
	if err != nil {
		t.Fatal(err)
	}
	if res.Pairs == 0 || !res.Found {
		t.Fatalf("join produced nothing: %+v", res)
	}
	if res.BuildRows == 0 || res.ProbeRows == 0 {
		t.Errorf("phase row counts missing: %+v", res)
	}
	if res.Runtime <= 0 {
		t.Error("non-positive runtime")
	}
	// Exactness: COUNT over the same join equals Pairs.
	cnt, err := sys.ExecuteJoin(JoinQuery{
		Build: dim, Probe: fact, Low: 0, High: 499, Agg: Count,
	}, Cold())
	if err != nil {
		t.Fatal(err)
	}
	if cnt.Value != res.Pairs {
		t.Errorf("COUNT = %d, pairs = %d", cnt.Value, res.Pairs)
	}
}

func TestJoinPlansBothSides(t *testing.T) {
	sys, dim, fact := newJoinSystem(t)
	res, err := sys.ExecuteJoin(JoinQuery{
		Build: dim, Probe: fact, Low: 0, High: 49, // 1% of the dim domain
	}, Cold())
	if err != nil {
		t.Fatal(err)
	}
	// Narrow range: the large probe side should go through its index in
	// parallel under the QDTT model. (The tiny build side legitimately
	// full-scans — 152 pages of sequential I/O beat 50 random fetches.)
	if res.ProbePlan.Method != IndexScan {
		t.Errorf("probe plan %v, want an index scan", res.ProbePlan)
	}
	if res.ProbePlan.Degree < 8 {
		t.Errorf("probe degree %d, want parallel", res.ProbePlan.Degree)
	}
	if res.BuildPlan.Method == FullTableScan && res.BuildPlan.Degree > 8 {
		t.Errorf("build plan %v over-parallelized for a 152-page table", res.BuildPlan)
	}
}

func TestJoinQDTTFasterThanDTT(t *testing.T) {
	sys, dim, fact := newJoinSystem(t)
	q := JoinQuery{Build: dim, Probe: fact, Low: 0, High: 49}
	oldRes, err := sys.ExecuteJoin(q, Cold(),
		WithPlanOptions(PlanOptions{DepthOblivious: true}))
	if err != nil {
		t.Fatal(err)
	}
	newRes, err := sys.ExecuteJoin(q, Cold())
	if err != nil {
		t.Fatal(err)
	}
	if newRes.Pairs != oldRes.Pairs || newRes.Value != oldRes.Value {
		t.Fatalf("answers differ between optimizers")
	}
	if gain := float64(oldRes.Runtime) / float64(newRes.Runtime); gain < 2 {
		t.Errorf("QDTT join speedup = %.1fx, want >= 2x", gain)
	}
}

func TestJoinMethodSelection(t *testing.T) {
	// With uniform dense keys, the range predicate pushes down to the probe
	// side and the hash join is already minimal — it should stay chosen.
	// A heavily skewed build side repeats few distinct keys across a wide
	// range; the distinct-count statistics should flip the planner to the
	// index nested-loop join (few lookups beat scanning the probe range).
	sys := New(Config{Device: SSD, PoolPages: 2048})
	skewed, err := sys.CreateTable("skewed", 30000, 33, WithZipfData(1.5))
	if err != nil {
		t.Fatal(err)
	}
	// Synthetic keys are a permutation: every build row carries a distinct
	// key, so the NL join saves nothing over the pushed-down hash probe.
	uniform, err := sys.CreateTable("uniform", 30000, 33, WithSyntheticData())
	if err != nil {
		t.Fatal(err)
	}
	big, err := sys.CreateTable("big", 80000, 33)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Calibrate(CalibrationOptions{MaxReads: 640}); err != nil {
		t.Fatal(err)
	}

	nl, err := sys.ExecuteJoin(JoinQuery{Build: skewed, Probe: big, Low: 0, High: 29999}, Cold())
	if err != nil {
		t.Fatal(err)
	}
	if nl.Method != "IndexNLJoin" {
		t.Errorf("skewed-build join chose %s, want IndexNLJoin", nl.Method)
	}

	hash, err := sys.ExecuteJoin(JoinQuery{Build: uniform, Probe: big, Low: 0, High: 29999}, Cold())
	if err != nil {
		t.Fatal(err)
	}
	if hash.Method != "HashJoin" {
		t.Errorf("uniform-build join chose %s, want HashJoin", hash.Method)
	}

	// Answers agree across methods: COUNT the skewed join both ways.
	nlCnt, err := sys.ExecuteJoin(JoinQuery{
		Build: skewed, Probe: big, Low: 0, High: 29999, Agg: Count,
	}, Cold())
	if err != nil {
		t.Fatal(err)
	}
	if nlCnt.Value != nl.Pairs {
		t.Errorf("COUNT %d != pairs %d", nlCnt.Value, nl.Pairs)
	}
}

func TestJoinValidation(t *testing.T) {
	sys, dim, _ := newJoinSystem(t)
	if _, err := sys.ExecuteJoin(JoinQuery{Build: dim}); !errors.Is(err, ErrInvalidQuery) {
		t.Errorf("join without probe: err = %v, want ErrInvalidQuery", err)
	}
	if _, err := sys.PlanJoin(JoinQuery{Probe: dim}, PlanOptions{}); !errors.Is(err, ErrInvalidQuery) {
		t.Errorf("PlanJoin without build: err = %v, want ErrInvalidQuery", err)
	}
	uncal := New(Config{Device: SSD})
	a, _ := uncal.CreateTable("a", 100, 10)
	b, _ := uncal.CreateTable("b", 100, 10)
	if _, err := uncal.ExecuteJoin(JoinQuery{Build: a, Probe: b}); err == nil {
		t.Error("join before calibration accepted")
	}
}
