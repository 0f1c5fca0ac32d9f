package pioqo

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func TestExecuteConcurrentAnswersMatchSerial(t *testing.T) {
	sys, tab := newCalibrated(t, SSD, 50000, 33)
	queries := []Query{
		{Table: tab, Low: 0, High: 499},
		{Table: tab, Low: 1000, High: 1999},
		{Table: tab, Low: 40000, High: 49999},
	}
	var want []Result
	for _, q := range queries {
		res, err := sys.Run(context.Background(), q, Cold())
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res)
	}
	sys.FlushBufferPool()
	got, err := sys.ExecuteConcurrent(queries, Cold())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != len(queries) {
		t.Fatalf("%d results, want %d", len(got.Results), len(queries))
	}
	for i := range queries {
		if got.Results[i].Value != want[i].Value || got.Results[i].Rows != want[i].Rows {
			t.Errorf("query %d: concurrent (%d, %d rows) vs serial (%d, %d rows)",
				i, got.Results[i].Value, got.Results[i].Rows, want[i].Value, want[i].Rows)
		}
	}
	if got.Elapsed <= 0 {
		t.Error("non-positive batch elapsed time")
	}
}

func TestExecuteConcurrentSplitsQueueBudget(t *testing.T) {
	sys, tab := newCalibrated(t, SSD, 100000, 33)
	queries := []Query{
		{Table: tab, Low: 0, High: 99},
		{Table: tab, Low: 200, High: 299},
	}
	res, err := sys.ExecuteConcurrent(queries, Cold())
	if err != nil {
		t.Fatal(err)
	}
	if res.QueueBudget <= 0 || res.QueueBudget > 16 {
		t.Errorf("queue budget = %d for 2 queries, want within (0, 16]", res.QueueBudget)
	}
	if len(res.Admissions) != len(queries) {
		t.Fatalf("%d admission records, want %d", len(res.Admissions), len(queries))
	}
	for i, r := range res.Results {
		adm := res.Admissions[i]
		if adm.Budget > 0 && r.Plan.Degree > adm.Budget {
			t.Errorf("query %d ran at degree %d above its leased budget %d",
				i, r.Plan.Degree, adm.Budget)
		}
		if adm.Wait < 0 {
			t.Errorf("query %d: negative admission wait %v", i, adm.Wait)
		}
	}
}

func TestSingleQueryBatchMatchesExecute(t *testing.T) {
	// A batch of one is a sole query on an idle broker: it receives an
	// unbounded lease, plans exactly as Run would, and its result must be
	// byte-for-byte identical — on a sharded table too, where the batch
	// window's device traffic is summed over every node.
	for _, shards := range []int{1, 4} {
		calibrated := func() (*System, *Table) {
			if shards == 1 {
				return newCalibrated(t, SSD, 50000, 33)
			}
			return newShardedCalibrated(t, shards, PartitionHash, 50000, 0)
		}
		sysA, tabA := calibrated()
		want, err := sysA.Run(context.Background(), Query{Table: tabA, Low: 0, High: 4999}, Cold())
		if err != nil {
			t.Fatal(err)
		}
		sysB, tabB := calibrated()
		batch, err := sysB.ExecuteConcurrent(
			[]Query{{Table: tabB, Low: 0, High: 4999}}, Cold())
		if err != nil {
			t.Fatal(err)
		}
		if got := batch.Results[0]; !reflect.DeepEqual(got, want) {
			t.Errorf("%d shards: single-query batch diverged from Run:\n got %+v\nwant %+v", shards, got, want)
		}
		if adm := batch.Admissions[0]; adm.Budget != 0 || adm.Wait != 0 {
			t.Errorf("%d shards: sole query admission = %+v, want unbounded lease with zero wait", shards, adm)
		}
		// On one node the drain ends with the query; a sharded one also runs
		// the armed hedge timers out, past the query's exit.
		if shards == 1 && batch.Elapsed != want.Runtime || batch.Elapsed < want.Runtime {
			t.Errorf("%d shards: batch makespan %v, query runtime %v", shards, batch.Elapsed, want.Runtime)
		}
		if batch.IOThroughputMBps != want.IOThroughputMBps {
			t.Errorf("%d shards: batch throughput %v MB/s, the query's %v", shards, batch.IOThroughputMBps, want.IOThroughputMBps)
		}
	}
}

func TestBudgetFloorWhenQueriesOutnumberDepth(t *testing.T) {
	// 40 queries exceed any calibrated beneficial depth (the grid tops out
	// at 32): the reported even share still floors at one credit, and the
	// broker drains the over-subscribed batch — every bounded lease keeps
	// the floor, late survivors may be re-brokered up to an unbounded one.
	sys, tab := newCalibrated(t, SSD, 50000, 33)
	queries := make([]Query, 40)
	want := make([]int64, len(queries))
	for i := range queries {
		lo := int64(i * 100)
		queries[i] = Query{Table: tab, Low: lo, High: lo + 49}
		res, err := sys.Run(context.Background(), queries[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Rows
	}
	res, err := sys.ExecuteConcurrent(queries, Cold())
	if err != nil {
		t.Fatal(err)
	}
	if res.QueueBudget != 1 {
		t.Errorf("floor share = %d for %d queries, want 1", res.QueueBudget, len(queries))
	}
	for i, adm := range res.Admissions {
		if adm.Budget < 0 {
			t.Errorf("query %d leased budget %d", i, adm.Budget)
		}
		if adm.Budget > 0 && res.Results[i].Plan.Degree > adm.Budget {
			t.Errorf("query %d degree %d above budget %d",
				i, res.Results[i].Plan.Degree, adm.Budget)
		}
		if res.Results[i].Rows != want[i] {
			t.Errorf("query %d matched %d rows in the batch, %d alone",
				i, res.Results[i].Rows, want[i])
		}
	}
}

func TestColdFlushesBeforePlanning(t *testing.T) {
	// Two identical systems, identical warm-up. A warms the pool and runs
	// the batch with Cold(); B warms, flushes by hand, and runs without.
	// If Cold() flushed after planning, A would have planned against warm
	// residency statistics and the runs would diverge.
	run := func(explicitFlush bool) ConcurrentResult {
		sys, tab := newCalibrated(t, SSD, 50000, 33)
		if _, err := sys.Run(context.Background(), Query{Table: tab, Low: 0, High: 49999}); err != nil {
			t.Fatal(err)
		}
		if sys.BufferPoolResident(tab) == 0 {
			t.Fatal("warm-up left the pool cold")
		}
		queries := []Query{
			{Table: tab, Low: 0, High: 999},
			{Table: tab, Low: 20000, High: 20999},
		}
		var (
			res ConcurrentResult
			err error
		)
		if explicitFlush {
			sys.FlushBufferPool()
			res, err = sys.ExecuteConcurrent(queries)
		} else {
			res, err = sys.ExecuteConcurrent(queries, Cold())
		}
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cold, manual := run(false), run(true)
	if cold.Elapsed != manual.Elapsed {
		t.Errorf("Cold() batch %v vs manually flushed batch %v: Cold must flush before planning",
			cold.Elapsed, manual.Elapsed)
	}
	for i := range cold.Results {
		if cold.Results[i].Plan != manual.Results[i].Plan {
			t.Errorf("query %d: Cold() plan %v vs flushed plan %v",
				i, cold.Results[i].Plan, manual.Results[i].Plan)
		}
	}
}

func TestConcurrentBatchBeatsSequentialExecution(t *testing.T) {
	// Two index scans that each leave device parallelism unused at their
	// budgeted degree should overlap: the batch completes well before the
	// sum of the two serial runtimes.
	sys, tab := newCalibrated(t, SSD, 100000, 33)
	q1 := Query{Table: tab, Low: 0, High: 199}
	q2 := Query{Table: tab, Low: 50000, High: 50199}

	serial := func(q Query) float64 {
		res, err := sys.Run(context.Background(), q, Cold(),
			WithPlanOptions(PlanOptions{QueueBudget: 16}))
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.Runtime)
	}
	total := serial(q1) + serial(q2)

	sys.FlushBufferPool()
	batch, err := sys.ExecuteConcurrent([]Query{q1, q2}, Cold())
	if err != nil {
		t.Fatal(err)
	}
	if float64(batch.Elapsed) > 0.8*total {
		t.Errorf("concurrent batch %v vs serial sum %.0fns: want meaningful overlap",
			batch.Elapsed, total)
	}
}

// TestBatchSplitsTheQueueDepth runs four 0.1 % index-range queries on an
// SSD three ways (§1, §4.3). Planned at degree 1 and run one after another,
// each leaves the device's queue nearly empty. Batched at degree 1, four
// independent queries keep it four deep and finish close to four times
// sooner. Batched under the broker, each plan is priced at its share of the
// beneficial depth: the batch finishes at least twice as fast again, and
// within 30 % of what it takes when every query asks for the whole depth
// and the queries run in turn.
func TestBatchSplitsTheQueueDepth(t *testing.T) {
	sys, tab := newCalibrated(t, SSD, 100000, 33)
	queries := make([]Query, 4)
	for i := range queries {
		lo := int64(i) * tab.Rows() / 4
		queries[i] = Query{Table: tab, Low: lo, High: lo + tab.Rows()/1000 - 1}
	}
	serialOnly := WithPlanOptions(PlanOptions{MaxDegree: 1})
	var serial time.Duration
	for _, q := range queries {
		res, err := sys.Run(context.Background(), q, Cold(), serialOnly)
		if err != nil {
			t.Fatal(err)
		}
		serial += res.Runtime
	}
	batch := func(opts ...QueryOption) time.Duration {
		res, err := sys.ExecuteConcurrent(queries, append(opts, Cold())...)
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed
	}
	interOnly, budgeted := batch(serialOnly), batch()
	wholeDepth := batch(WithPlanOptions(PlanOptions{QueueBudget: 32}))

	if gain := float64(serial) / float64(interOnly); gain < 2.5 {
		t.Errorf("inter-query speedup = %.1fx (serial %v, batched %v), want near 4x for 4 queries",
			gain, serial, interOnly)
	}
	if budgeted > interOnly/2 {
		t.Errorf("budgeted batch %v not well below the degree-1 batch %v", budgeted, interOnly)
	}
	if float64(budgeted) > 1.3*float64(wholeDepth) {
		t.Errorf("budgeted batch %v vs whole-depth queries in turn %v; want parity", budgeted, wholeDepth)
	}
}

func TestExecuteConcurrentValidation(t *testing.T) {
	sys, tab := newCalibrated(t, SSD, 1000, 33)
	if _, err := sys.ExecuteConcurrent(nil); err == nil {
		t.Error("empty batch accepted")
	}
	uncal := New(Config{Device: SSD})
	tab2, err := uncal.CreateTable("t", 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := uncal.ExecuteConcurrent([]Query{{Table: tab2}}); err == nil {
		t.Error("uncalibrated system accepted")
	}
	_ = tab
}

// TestPointLookupsShareTheHDD runs a brokered HDD batch of point lookups.
// The HDD's calibrated curve keeps gaining down to depth 32, so the broker's
// supply is 32 credits; a serial lookup is priced at depth 1 and leases one
// of them, so the batch's lookups are admitted dozens at a time instead of
// single file, and the disk sees a queue it can reorder. Every credit is
// back at the drain (Drain panics otherwise), and a second system built the
// same way runs the deep batch identically.
func TestPointLookupsShareTheHDD(t *testing.T) {
	batch := func() (ConcurrentResult, float64) {
		sys := New(Config{Device: HDD, PoolPages: 1024, Seed: 1})
		tab, err := sys.CreateTable("t", 200000, 33, WithSyntheticData())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Calibrate(CalibrationOptions{MaxReads: 640}); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		qs := make([]Query, 64)
		for i := range qs {
			k := rng.Int63n(tab.Rows())
			qs[i] = Query{Table: tab, Low: k, High: k}
		}
		res, err := sys.ExecuteConcurrent(qs, Cold())
		if err != nil {
			t.Fatal(err)
		}
		return res, sys.coord().Dev.Metrics().Snapshot().AvgQueueDepth
	}
	res, depth := batch()
	serial := 0
	for i, r := range res.Results {
		if r.Rows != 1 {
			t.Errorf("lookup %d matched %d rows, want 1", i, r.Rows)
		}
		if r.Plan.Degree > 1 {
			continue
		}
		serial++
		if b := res.Admissions[i].Budget; b != 1 {
			t.Errorf("serial lookup %d (%v) leased %d credits, want 1", i, r.Plan, b)
		}
	}
	if serial < len(res.Results)*3/4 {
		t.Errorf("%d of %d lookups ran serial, want at least three quarters", serial, len(res.Results))
	}
	if depth <= 1 {
		t.Errorf("device mean queue depth %.2f over the batch, want > 1", depth)
	}
	if again, againDepth := batch(); !reflect.DeepEqual(again, res) || againDepth != depth {
		t.Errorf("the same batch ran differently twice: elapsed %v vs %v, mean depth %.4f vs %.4f",
			res.Elapsed, again.Elapsed, depth, againDepth)
	}
}
