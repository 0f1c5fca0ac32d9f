package pioqo

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"pioqo/internal/exec"
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
	res, err := sys.Run(context.Background(), JoinQuery{
		Build: dim, Probe: fact, Low: 0, High: 499,
	}, Cold())
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows == 0 || !res.Found {
		t.Fatalf("join produced nothing: %+v", res)
	}
	if res.BuildRows == 0 || res.ProbeRows == 0 {
		t.Errorf("phase row counts missing: %+v", res)
	}
	if res.Runtime <= 0 {
		t.Error("non-positive runtime")
	}
	// Exactness: COUNT over the same join equals its pairs (Rows).
	cnt, err := sys.Run(context.Background(), JoinQuery{
		Build: dim, Probe: fact, Low: 0, High: 499, Agg: Count,
	}, Cold())
	if err != nil {
		t.Fatal(err)
	}
	if cnt.Value != res.Rows {
		t.Errorf("COUNT = %d, pairs = %d", cnt.Value, res.Rows)
	}
}

func TestJoinPlansBothSides(t *testing.T) {
	sys, dim, fact := newJoinSystem(t)
	res, err := sys.Run(context.Background(), JoinQuery{
		Build: dim, Probe: fact, Low: 0, High: 49, // 1% of the dim domain
	}, Cold())
	if err != nil {
		t.Fatal(err)
	}
	// Narrow range: the large probe side should go through its index in
	// parallel under the QDTT model. (The tiny build side legitimately
	// full-scans — 152 pages of sequential I/O beat 50 random fetches.)
	if res.Plan.Join.Probe.Method != IndexScan {
		t.Errorf("probe plan %v, want an index scan", res.Plan.Join.Probe)
	}
	if res.Plan.Join.Probe.Degree < 8 {
		t.Errorf("probe degree %d, want parallel", res.Plan.Join.Probe.Degree)
	}
	if res.Plan.Join.Build.Method == FullTableScan && res.Plan.Join.Build.Degree > 8 {
		t.Errorf("build plan %v over-parallelized for a 152-page table", res.Plan.Join.Build)
	}
}

func TestJoinQDTTFasterThanDTT(t *testing.T) {
	sys, dim, fact := newJoinSystem(t)
	q := JoinQuery{Build: dim, Probe: fact, Low: 0, High: 49}
	oldRes, err := sys.Run(context.Background(), q, Cold(),
		WithPlanOptions(PlanOptions{DepthOblivious: true}))
	if err != nil {
		t.Fatal(err)
	}
	newRes, err := sys.Run(context.Background(), q, Cold())
	if err != nil {
		t.Fatal(err)
	}
	if newRes.Rows != oldRes.Rows || newRes.Value != oldRes.Value {
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

	nl, err := sys.Run(context.Background(), JoinQuery{Build: skewed, Probe: big, Low: 0, High: 29999}, Cold())
	if err != nil {
		t.Fatal(err)
	}
	if nl.Plan.Join.Method != "IndexNLJoin" {
		t.Errorf("skewed-build join chose %s, want IndexNLJoin", nl.Plan.Join.Method)
	}

	hash, err := sys.Run(context.Background(), JoinQuery{Build: uniform, Probe: big, Low: 0, High: 29999}, Cold())
	if err != nil {
		t.Fatal(err)
	}
	if hash.Plan.Join.Method != "HashJoin" {
		t.Errorf("uniform-build join chose %s, want HashJoin", hash.Plan.Join.Method)
	}

	// Answers agree across methods: COUNT the skewed join both ways.
	nlCnt, err := sys.Run(context.Background(), JoinQuery{
		Build: skewed, Probe: big, Low: 0, High: 29999, Agg: Count,
	}, Cold())
	if err != nil {
		t.Fatal(err)
	}
	if nlCnt.Value != nl.Rows {
		t.Errorf("COUNT %d != pairs %d", nlCnt.Value, nl.Rows)
	}
}

// TestJoinPlannerTracksBuildSkew joins build sides of rising key skew to one
// probe table over the whole build domain. As skew concentrates the build
// rows on fewer distinct keys, the index nested-loop join's lookups get
// fewer and it gets faster; the planner, fed the distinct counts, must
// follow the crossover — it picks the NL join at the heaviest skew, and at
// every skew its join runs within 1.5x of the faster of the two methods,
// each forced on the same scans (full-scan build ×8, index probe ×32).
func TestJoinPlannerTracksBuildSkew(t *testing.T) {
	const buildRows = 8192
	sys := New(Config{Device: SSD, PoolPages: 256})
	probe, err := sys.CreateTable("probe", 2048*33, 33, WithSyntheticData())
	if err != nil {
		t.Fatal(err)
	}
	skews := []float64{0, 1.1, 1.3, 1.6, 2.0}
	builds := make([]*Table, len(skews))
	for i, skew := range skews {
		var opts []TableOption
		if skew > 0 {
			opts = append(opts, WithZipfData(skew))
		}
		if builds[i], err = sys.CreateTable(fmt.Sprintf("build%d", i), buildRows, 33, opts...); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.Calibrate(CalibrationOptions{MaxReads: 640}); err != nil {
		t.Fatal(err)
	}
	forced := func(build *Table, method exec.JoinMethod) time.Duration {
		b, p := build.one(), probe.one()
		sys.FlushBufferPool()
		return time.Duration(exec.ExecuteJoin(sys.nodeContext(sys.coord()), exec.JoinSpec{
			Method: method,
			Build:  exec.Spec{Table: b.tab, Index: b.idx, Hi: buildRows - 1, Method: exec.FullScan, Degree: 8},
			Probe:  exec.Spec{Table: p.tab, Index: p.idx, Hi: buildRows - 1, Method: exec.IndexScan, Degree: 32},
			Agg:    exec.AggCount,
		}).Runtime)
	}
	var prevDistinct float64
	var prevNL time.Duration
	var chosen string
	for i, build := range builds {
		res, err := sys.Run(context.Background(), JoinQuery{Build: build, Probe: probe, High: buildRows - 1, Agg: Count}, Cold())
		if err != nil {
			t.Fatal(err)
		}
		chosen = res.Plan.Join.Method
		hash, nl := forced(build, exec.HashJoin), forced(build, exec.IndexNLJoin)
		if regret := float64(res.Runtime) / float64(min(hash, nl, res.Runtime)); regret > 1.5 {
			t.Errorf("skew %.1f: %s ran %v against hash %v and NL %v, regret %.2fx, want <= 1.5x",
				skews[i], res.Plan.Join.Method, res.Runtime, hash, nl, regret)
		}
		distinct := build.one().hist.DistinctRatio()
		if i > 0 && distinct >= prevDistinct {
			t.Errorf("skew %.1f: distinct ratio %.3f did not fall from %.3f", skews[i], distinct, prevDistinct)
		}
		if i > 0 && nl >= prevNL {
			t.Errorf("skew %.1f: NL join %v did not get faster than %v", skews[i], nl, prevNL)
		}
		prevDistinct, prevNL = distinct, nl
	}
	if chosen != "IndexNLJoin" {
		t.Errorf("heaviest skew chose %s, want IndexNLJoin", chosen)
	}
}

func TestJoinValidation(t *testing.T) {
	sys, dim, _ := newJoinSystem(t)
	if _, err := sys.Run(context.Background(), JoinQuery{Build: dim}); !errors.Is(err, ErrInvalidQuery) {
		t.Errorf("join without probe: err = %v, want ErrInvalidQuery", err)
	}
	if _, err := sys.Plan(JoinQuery{Probe: dim}, PlanOptions{}); !errors.Is(err, ErrInvalidQuery) {
		t.Errorf("Plan of a join without build: err = %v, want ErrInvalidQuery", err)
	}
	uncal := New(Config{Device: SSD})
	a, _ := uncal.CreateTable("a", 100, 10)
	b, _ := uncal.CreateTable("b", 100, 10)
	if _, err := uncal.Run(context.Background(), JoinQuery{Build: a, Probe: b}); err == nil {
		t.Error("join before calibration accepted")
	}
}
