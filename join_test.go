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

// TestJoinMethodSelection joins two build sides to one probe table over the
// whole build domain, each forced both ways, and checks the planner picks
// the faster method. With uniform dense keys the range predicate pushes
// down to the probe side and the hash join is already minimal. A heavily
// skewed build side repeats few distinct keys across a wide range, and the
// distinct-count statistics should flip the planner to the index
// nested-loop join: few lookups beat scanning the probe range. The two
// builds are cut so that each method is the measured winner once.
func TestJoinMethodSelection(t *testing.T) {
	const buildRows = 30000
	sys := New(Config{Device: SSD, PoolPages: 2048})
	skewed, err := sys.CreateTable("skewed", buildRows, 33, WithZipfData(2.0))
	if err != nil {
		t.Fatal(err)
	}
	// Synthetic keys are a permutation: every build row carries a distinct
	// key, so the NL join saves nothing over the pushed-down hash probe.
	uniform, err := sys.CreateTable("uniform", buildRows, 33, WithSyntheticData())
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
	// forced runs the COUNT join cold with its method forced, on the shapes
	// the planner chooses among here: a full-scan build ×8, and for the
	// hash join the faster of a full-scan and an index probe.
	forced := func(build *Table, method exec.JoinMethod) exec.JoinResult {
		b, p := build.one(), big.one()
		run := func(probe exec.Method, degree int) exec.JoinResult {
			sys.FlushBufferPool()
			return exec.ExecuteJoin(sys.nodeContext(sys.coord()), exec.JoinSpec{
				Method: method,
				Build:  exec.Spec{Table: b.tab, Index: b.idx, Hi: buildRows - 1, Method: exec.FullScan, Degree: 8},
				Probe:  exec.Spec{Table: p.tab, Index: p.idx, Hi: buildRows - 1, Method: probe, Degree: degree},
				Agg:    exec.AggCount,
			})
		}
		res := run(exec.IndexScan, 32)
		if method == exec.HashJoin {
			if fts := run(exec.FullScan, 8); fts.Runtime < res.Runtime {
				res = fts
			}
		}
		return res
	}
	winners := map[string]bool{}
	for _, c := range []struct {
		name  string
		build *Table
	}{{"skewed", skewed}, {"uniform", uniform}} {
		res, err := sys.Run(context.Background(), JoinQuery{Build: c.build, Probe: big, High: buildRows - 1, Agg: Count}, Cold())
		if err != nil {
			t.Fatal(err)
		}
		hash, nl := forced(c.build, exec.HashJoin), forced(c.build, exec.IndexNLJoin)
		if hash.Pairs != nl.Pairs || res.Value != hash.Pairs {
			t.Errorf("%s build: COUNT %d, forced hash %d pairs, forced NL %d", c.name, res.Value, hash.Pairs, nl.Pairs)
		}
		hashRT, nlRT := time.Duration(hash.Runtime), time.Duration(nl.Runtime)
		t.Logf("%s build: %s ran %v; forced hash %v, NL %v", c.name, res.Plan.Join.Method, res.Runtime, hashRT, nlRT)
		winner := exec.HashJoin
		if nlRT < hashRT {
			winner = exec.IndexNLJoin
		}
		winners[winner.String()] = true
		if res.Plan.Join.Method != winner.String() {
			t.Errorf("%s build: chose %s, but hash ran %v and NL %v",
				c.name, res.Plan.Join.Method, hashRT, nlRT)
		}
		if regret := float64(res.Runtime) / float64(min(hashRT, nlRT, res.Runtime)); regret > 1.5 {
			t.Errorf("%s build: %s ran %v against hash %v and NL %v, regret %.2fx, want <= 1.5x",
				c.name, res.Plan.Join.Method, res.Runtime, hashRT, nlRT, regret)
		}
	}
	if len(winners) != 2 {
		t.Errorf("one method won on both builds (%v); the fixtures must cut one win each", winners)
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
