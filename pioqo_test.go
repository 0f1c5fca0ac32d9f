package pioqo

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"pioqo/internal/opt"
)

// newCalibrated returns a small calibrated SSD system with one table.
func newCalibrated(t *testing.T, dev DeviceKind, rows int64, rpp int) (*System, *Table) {
	t.Helper()
	sys := New(Config{Device: dev, PoolPages: 1024})
	tab, err := sys.CreateTable("t", rows, rpp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Calibrate(CalibrationOptions{MaxReads: 640}); err != nil {
		t.Fatal(err)
	}
	return sys, tab
}

func TestQuickstartFlow(t *testing.T) {
	sys, tab := newCalibrated(t, SSD, 50000, 33)
	q := Query{Table: tab, Low: 0, High: 499}
	res, err := sys.Run(context.Background(), q, Cold())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("1% range matched nothing")
	}
	if res.Rows < 300 || res.Rows > 800 {
		t.Errorf("matched %d rows, want ~500", res.Rows)
	}
	if res.Runtime <= 0 {
		t.Error("non-positive runtime")
	}
	// The plan is judged by what it costs to run, not by its name: at 1 %
	// of this small table a parallel index scan and a parallel full scan
	// are within a factor of two of each other, and which of them the
	// optimizer should pick moves with every correction to the model.
	for _, alt := range []Plan{
		{Method: IndexScan, Degree: 1}, {Method: IndexScan, Degree: 8}, {Method: IndexScan, Degree: 32},
		{Method: FullTableScan, Degree: 1}, {Method: FullTableScan, Degree: 8},
	} {
		forced, err := sys.Run(context.Background(), q, WithPlan(alt), Cold())
		if err != nil {
			t.Fatal(err)
		}
		if forced.Rows != res.Rows {
			t.Errorf("%v×%d matched %d rows, the chosen plan %d", alt.Method, alt.Degree, forced.Rows, res.Rows)
		}
		if float64(res.Runtime) > 1.1*float64(forced.Runtime) {
			t.Errorf("chosen %v ran %v, forced %v×%d ran %v", res.Plan, res.Runtime, alt.Method, alt.Degree, forced.Runtime)
		}
	}
}

func TestExecuteRequiresCalibration(t *testing.T) {
	sys := New(Config{Device: SSD})
	tab, err := sys.CreateTable("t", 1000, 33)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(context.Background(), Query{Table: tab, Low: 0, High: 10}); err == nil {
		t.Error("Run before Calibrate did not fail")
	}
	if _, err := sys.Model(); err == nil {
		t.Error("Model before Calibrate did not fail")
	}
}

func TestCreateTableValidation(t *testing.T) {
	sys := New(Config{Device: SSD})
	if _, err := sys.CreateTable("", 10, 1); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := sys.CreateTable("t", 0, 1); err == nil {
		t.Error("zero rows accepted")
	}
	if _, err := sys.CreateTable("t", 10, 0); err == nil {
		t.Error("zero rows/page accepted")
	}
	if _, err := sys.CreateTable("t", 10, 1); err != nil {
		t.Fatalf("valid table rejected: %v", err)
	}
	if _, err := sys.CreateTable("t", 10, 1); err == nil {
		t.Error("duplicate name accepted")
	}
	if _, err := sys.CreateTable("huge", 1<<40, 1); err == nil {
		t.Error("table beyond device capacity accepted")
	}
}

func TestExecuteAnswersMatchAcrossPlans(t *testing.T) {
	sys, tab := newCalibrated(t, SSD, 20000, 33)
	q := Query{Table: tab, Low: 100, High: 2099}
	var results []Result
	for _, plan := range []Plan{
		{Method: FullTableScan, Degree: 1},
		{Method: FullTableScan, Degree: 8},
		{Method: IndexScan, Degree: 1},
		{Method: IndexScan, Degree: 32},
	} {
		res, err := sys.Run(context.Background(), q, WithPlan(plan), Cold())
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	for i := 1; i < len(results); i++ {
		if results[i].Value != results[0].Value || results[i].Rows != results[0].Rows {
			t.Errorf("plan %d answer (max=%d rows=%d) differs from plan 0 (max=%d rows=%d)",
				i, results[i].Value, results[i].Rows, results[0].Value, results[0].Rows)
		}
	}
}

func TestDepthObliviousPlannerAvoidsParallelIndexScan(t *testing.T) {
	sys, tab := newCalibrated(t, SSD, 100000, 33)
	q := Query{Table: tab, Low: 0, High: 99} // 0.1% selectivity
	oldPlan, err := sys.Plan(q, PlanOptions{DepthOblivious: true})
	if err != nil {
		t.Fatal(err)
	}
	newPlan, err := sys.Plan(q, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if oldPlan.Method == IndexScan && oldPlan.Degree > 1 {
		t.Errorf("DTT planner chose parallel index scan %v", oldPlan)
	}
	if newPlan.Method != IndexScan || newPlan.Degree < 8 {
		t.Errorf("QDTT planner chose %v, want high-degree index scan", newPlan)
	}
}

func TestQDTTPlanRunsFasterOnSSD(t *testing.T) {
	sys, tab := newCalibrated(t, SSD, 100000, 33)
	q := Query{Table: tab, Low: 0, High: 99}
	oldRes, err := sys.Run(context.Background(), q, Cold(), WithPlanOptions(PlanOptions{DepthOblivious: true}))
	if err != nil {
		t.Fatal(err)
	}
	newRes, err := sys.Run(context.Background(), q, Cold())
	if err != nil {
		t.Fatal(err)
	}
	if speedup := float64(oldRes.Runtime) / float64(newRes.Runtime); speedup < 3 {
		t.Errorf("QDTT speedup = %.1fx (old %v via %v, new %v via %v), want >= 3x",
			speedup, oldRes.Runtime, oldRes.Plan, newRes.Runtime, newRes.Plan)
	}
}

// TestQDTTWinsAMixedStream plans and runs twelve cold range queries, their
// selectivities drawn log-uniformly from 0.01 % to 10 %, once under the DTT
// model and once under QDTT: over the whole stream, not one chosen query,
// queue-depth awareness pays — half again or more in total time, a worst
// query no slower, and at least as many queries run in parallel.
func TestQDTTWinsAMixedStream(t *testing.T) {
	sys := New(Config{Device: SSD, PoolPages: 256})
	tab, err := sys.CreateTable("t", 2048*33, 33, WithSyntheticData())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Calibrate(CalibrationOptions{MaxReads: 640}); err != nil {
		t.Fatal(err)
	}
	var total, worst [2]time.Duration // DTT, QDTT
	var parallel [2]int
	rng := rand.New(rand.NewSource(909))
	for i := 0; i < 12; i++ {
		width := int64(1e-4 * math.Pow(10, 3*rng.Float64()) * float64(tab.Rows()))
		lo := rng.Int63n(tab.Rows() - width)
		q := Query{Table: tab, Low: lo, High: lo + width - 1}
		for k, depthOblivious := range []bool{true, false} {
			res, err := sys.Run(context.Background(), q, Cold(), WithPlanOptions(PlanOptions{DepthOblivious: depthOblivious}))
			if err != nil {
				t.Fatal(err)
			}
			total[k] += res.Runtime
			worst[k] = max(worst[k], res.Runtime)
			if res.Plan.Degree > 1 {
				parallel[k]++
			}
		}
	}
	if gain := float64(total[0]) / float64(total[1]); gain < 1.5 {
		t.Errorf("QDTT whole-stream gain = %.2fx (DTT %v, QDTT %v), want >= 1.5x", gain, total[0], total[1])
	}
	if worst[1] > worst[0] {
		t.Errorf("QDTT worst query %v above DTT's %v", worst[1], worst[0])
	}
	if parallel[1] < parallel[0] {
		t.Errorf("QDTT ran %d queries in parallel, DTT %d; want at least as many", parallel[1], parallel[0])
	}
}

func TestExplainIsSortedAndConsistentWithPlan(t *testing.T) {
	sys, tab := newCalibrated(t, SSD, 20000, 33)
	q := Query{Table: tab, Low: 0, High: 1999}
	plans, err := sys.Explain(q, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 12 {
		t.Fatalf("%d candidates, want 12", len(plans))
	}
	for i := 1; i < len(plans); i++ {
		if plans[i].EstimatedCost < plans[i-1].EstimatedCost {
			t.Fatal("Explain not sorted by cost")
		}
	}
	chosen, err := sys.Plan(q, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if chosen != plans[0] {
		t.Error("Plan differs from Explain's cheapest candidate")
	}
}

func TestMaxDegreeCap(t *testing.T) {
	sys, tab := newCalibrated(t, SSD, 100000, 1)
	plans, err := sys.Explain(Query{Table: tab, Low: 0, High: 99}, PlanOptions{MaxDegree: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plans {
		if p.Degree > 4 {
			t.Errorf("plan %v exceeds MaxDegree 4", p)
		}
	}
}

// TestPlanConfigAssignsEveryField: planConfig fills its config in place, so
// a config an earlier call filled under other options must come out equal
// to a zero one filled under these — nothing stale, no Degrees kept from a
// MaxDegree or PrefetchDepths from prefetch planning.
func TestPlanConfigAssignsEveryField(t *testing.T) {
	sys, _ := newCalibrated(t, SSD, 20000, 33)
	variants := []PlanOptions{
		{},
		{DepthOblivious: true},
		{MaxDegree: 4},
		{EnablePrefetchPlanning: true},
		{QueueBudget: 8},
		{ShareParties: 4},
		{DepthOblivious: true, MaxDegree: 2, EnablePrefetchPlanning: true, QueueBudget: 3, ShareParties: 2},
	}
	for _, earlier := range variants {
		for _, o := range variants {
			var dirty, clean opt.Config
			if err := sys.planConfig(sys.coord(), earlier, &dirty); err != nil {
				t.Fatal(err)
			}
			if err := sys.planConfig(sys.coord(), o, &dirty); err != nil {
				t.Fatal(err)
			}
			if err := sys.planConfig(sys.coord(), o, &clean); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(dirty, clean) {
				t.Errorf("%+v after %+v:\n got %+v\nwant %+v", o, earlier, dirty, clean)
			}
		}
	}
}

func TestWithoutIndexTableOnlyFullScans(t *testing.T) {
	sys := New(Config{Device: SSD, PoolPages: 512})
	tab, err := sys.CreateTable("t", 5000, 33, WithoutIndex())
	if err != nil {
		t.Fatal(err)
	}
	if tab.Indexed() {
		t.Fatal("WithoutIndex table reports an index")
	}
	if _, err := sys.Calibrate(CalibrationOptions{MaxReads: 400}); err != nil {
		t.Fatal(err)
	}
	plan, err := sys.Plan(Query{Table: tab, Low: 0, High: 9}, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Method != FullTableScan {
		t.Errorf("plan %v on unindexed table, want full scan", plan)
	}
	if _, err := sys.Run(context.Background(), Query{Table: tab, Low: 0, High: 9}, WithPlan(Plan{Method: IndexScan, Degree: 1})); err == nil {
		t.Error("index-scan plan on unindexed table did not fail")
	}
}

func TestSyntheticTableOption(t *testing.T) {
	sys := New(Config{Device: SSD, PoolPages: 512})
	tab, err := sys.CreateTable("big", 1_000_000, 33, WithSyntheticData())
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows() != 1_000_000 {
		t.Errorf("rows = %d", tab.Rows())
	}
	if _, err := sys.Calibrate(CalibrationOptions{MaxReads: 400}); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(context.Background(), Query{Table: tab, Low: 0, High: 999}, Cold())
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 1000 {
		t.Errorf("matched %d rows, want exactly 1000 (synthetic keys are a permutation)", res.Rows)
	}
}

func TestColdVsWarm(t *testing.T) {
	sys, tab := newCalibrated(t, SSD, 10000, 33)
	q := Query{Table: tab, Low: 0, High: 9999}
	cold, err := sys.Run(context.Background(), q, Cold())
	if err != nil {
		t.Fatal(err)
	}
	warm, err := sys.Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Runtime >= cold.Runtime {
		t.Errorf("warm run %v not faster than cold %v", warm.Runtime, cold.Runtime)
	}
	if sys.BufferPoolResident(tab) == 0 {
		t.Error("no resident pages after a warm run")
	}
}

func TestWithPrefetchSpeedsUpSerialIndexScan(t *testing.T) {
	sys, tab := newCalibrated(t, SSD, 100000, 1)
	q := Query{Table: tab, Low: 0, High: 9999}
	plan := Plan{Method: IndexScan, Degree: 1}
	plain, err := sys.Run(context.Background(), q, WithPlan(plan), Cold())
	if err != nil {
		t.Fatal(err)
	}
	prefetched, err := sys.Run(context.Background(), q, WithPlan(plan), Cold(), WithPrefetch(16))
	if err != nil {
		t.Fatal(err)
	}
	if gain := float64(plain.Runtime) / float64(prefetched.Runtime); gain < 4 {
		t.Errorf("prefetch gain = %.1fx, want >= 4x on SSD", gain)
	}
}

func TestCalibrationEarlyStopsOnHDD(t *testing.T) {
	sys := New(Config{Device: HDD})
	cal, err := sys.Calibrate(CalibrationOptions{MaxReads: 640})
	if err != nil {
		t.Fatal(err)
	}
	if !cal.StoppedEarly {
		t.Error("HDD calibration did not stop early at the default threshold")
	}
	if cal.Elapsed <= 0 || cal.Reads <= 0 {
		t.Errorf("degenerate calibration stats: %+v", cal)
	}
}

func TestHDDPlannerPrefersSerialIndexScan(t *testing.T) {
	sys := New(Config{Device: HDD, PoolPages: 1024})
	tab, err := sys.CreateTable("t", 50000, 33)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Calibrate(CalibrationOptions{MaxReads: 640}); err != nil {
		t.Fatal(err)
	}
	plan, err := sys.Plan(Query{Table: tab, Low: 0, High: 4}, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// On the HDD the QDTT model reports little parallel benefit, so even
	// the new optimizer should stay at a low degree for a tiny range.
	if plan.Method != IndexScan {
		t.Errorf("plan %v, want index scan for 0.01%% selectivity", plan)
	}
	if plan.Degree > 8 {
		t.Errorf("plan %v: HDD should not warrant high parallel degrees", plan)
	}
}

func TestResultRuntimeIsVirtual(t *testing.T) {
	sys, tab := newCalibrated(t, SSD, 200000, 1)
	start := time.Now()
	res, err := sys.Run(context.Background(), Query{Table: tab, Low: 0, High: 49999}, Cold())
	if err != nil {
		t.Fatal(err)
	}
	host := time.Since(start)
	if res.Runtime < 100*time.Millisecond {
		t.Errorf("modelled runtime %v suspiciously small for 50k random reads", res.Runtime)
	}
	if host > 10*time.Second {
		t.Errorf("host time %v too large; simulation should be fast", host)
	}
}

func TestPlanString(t *testing.T) {
	p := Plan{Method: IndexScan, Degree: 32, EstimatedCost: time.Millisecond}
	if got := p.String(); got[:6] != "PIS32 " {
		t.Errorf("String() = %q", got)
	}
}

// TestPlanMemoization: a repeated plan is served from the band cache and
// still counts as an optimization; a residency change re-prices the cached
// entry before it serves again; DepthOblivious repeats share one cached
// projection; and a recalibration drops the cache.
func TestPlanMemoization(t *testing.T) {
	sys, tab := newCalibrated(t, SSD, 50000, 33)
	q := Query{Table: tab, Low: 0, High: 499}

	before := sys.MetricsSnapshot()
	p1, err := sys.Plan(q, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := sys.Plan(q, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatalf("cached plan %v differs from first plan %v", p2, p1)
	}
	d := sys.MetricsSince(before)
	if d.Counter("opt.band_misses") != 1 || d.Counter("opt.band_hits") != 1 {
		t.Fatalf("band traffic = %d misses, %d hits; want 1, 1",
			d.Counter("opt.band_misses"), d.Counter("opt.band_hits"))
	}
	if d.Counter("opt.optimizations") != 2 {
		t.Fatalf("opt.optimizations = %d, want 2", d.Counter("opt.optimizations"))
	}

	// Executing the query moves pages through the pool; the entry's epoch
	// is stale, so the next plan re-prices it, keeping it or falling back.
	if _, err := sys.Run(context.Background(), q, Cold()); err != nil {
		t.Fatal(err)
	}
	before = sys.MetricsSnapshot()
	if _, err := sys.Plan(q, PlanOptions{}); err != nil {
		t.Fatal(err)
	}
	if d := sys.MetricsSince(before); d.Counter("opt.band_revalidations")+d.Counter("opt.greedy_fallbacks") != 1 {
		t.Fatalf("plan after execution: %d revalidations, %d fallbacks; want one of them",
			d.Counter("opt.band_revalidations"), d.Counter("opt.greedy_fallbacks"))
	}

	// DepthOblivious planning shares one cached depth-one projection, so
	// repeats hit the cache too.
	before = sys.MetricsSnapshot()
	sys.Plan(q, PlanOptions{DepthOblivious: true})
	sys.Plan(q, PlanOptions{DepthOblivious: true})
	if d := sys.MetricsSince(before); d.Counter("opt.band_hits") != 1 {
		t.Fatalf("depth-oblivious repeat: %d hits, want 1", d.Counter("opt.band_hits"))
	}

	// Recalibration installs a fresh model and must drop the cache.
	if _, err := sys.Calibrate(CalibrationOptions{MaxReads: 640}); err != nil {
		t.Fatal(err)
	}
	if st, n := sys.pcache.Stats(), sys.pcache.Len(); st != (opt.CacheStats{}) || n != 0 {
		t.Fatalf("plan cache not reset by calibration: %+v over %d shapes", st, n)
	}
}

// TestWithAdaptiveIsANoOp pins the deprecated shim: a Run, a
// Session.Submit and an ExecuteConcurrent with WithAdaptive give the same
// results and a byte-identical event log as the same calls without it.
func TestWithAdaptiveIsANoOp(t *testing.T) {
	run := func(opts ...QueryOption) (results []any, log string) {
		sys := New(Config{Device: SSD, PoolPages: 4096})
		sys.EnableEventLog(1 << 16)
		tab, err := sys.CreateTable("t", 200000, 33)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Calibrate(CalibrationOptions{MaxReads: 800, StopThreshold: -1}); err != nil {
			t.Fatal(err)
		}
		opts = append(opts, Cold())
		for _, hi := range []int64{999, 150000} { // an index scan, a full scan
			res, err := sys.Run(context.Background(), Query{Table: tab, Low: 0, High: hi}, opts...)
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, res)
		}
		ses := openSession(t, sys)
		sub, err := ses.Submit(Query{Table: tab, Low: 5000, High: 8999}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if err := ses.Drain(); err != nil {
			t.Fatal(err)
		}
		res, err := sub.Result()
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
		batch, err := sys.ExecuteConcurrent([]Query{
			{Table: tab, Low: 0, High: 999}, {Table: tab, Low: 0, High: 999}, {Table: tab, Low: 50000, High: 59999},
		}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, batch)
		var buf bytes.Buffer
		if err := sys.WriteEventLog(&buf); err != nil {
			t.Fatal(err)
		}
		return results, buf.String()
	}
	want, wantLog := run()
	if wantLog == "" {
		t.Fatal("the calls logged no events")
	}
	got, gotLog := run(WithAdaptive())
	if !reflect.DeepEqual(got, want) {
		t.Errorf("with WithAdaptive: %+v\nwithout: %+v", got, want)
	}
	if gotLog != wantLog {
		t.Errorf("the event logs differ with WithAdaptive (%d bytes, %d without)", len(gotLog), len(wantLog))
	}
}
