package pioqo

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"pioqo/internal/btree"
)

// newShardedCalibrated builds a calibrated cluster with one partitioned
// table (zipf <= 0 means uniform data).
func newShardedCalibrated(t *testing.T, shards int, kind PartitionKind, rows int64, zipf float64, opts ...TableOption) (*System, *Table) {
	t.Helper()
	sys := New(Config{Device: SSD, PoolPages: 1024, Shards: shards})
	topts := append([]TableOption{WithPartition(kind)}, opts...)
	if zipf > 0 {
		topts = append([]TableOption{WithZipfData(zipf)}, topts...)
	}
	tab, err := sys.CreateTable("t", rows, 33, topts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Calibrate(CalibrationOptions{MaxReads: 640}); err != nil {
		t.Fatal(err)
	}
	return sys, tab
}

// TestShardedAggregatesMatchUnsharded is the merge-decomposability
// invariant: per-shard MAX/MIN/COUNT/SUM partials folded by the gather
// operator must equal the unsharded answer byte for byte, across every
// partitioning, shard count, and both data distributions — the partitions
// hold the same row multiset, so the decomposable folds commute.
func TestShardedAggregatesMatchUnsharded(t *testing.T) {
	queries := []Query{
		{Low: 0, High: 499},
		{Low: 100, High: 30000},
		{Low: 0, High: 49999}, // everything
		{Low: 700, High: 650}, // empty range
	}
	aggs := []Aggregate{Max, Min, Count, Sum}
	for _, zipf := range []float64{0, 1.3} {
		ref, refTab := newShardedCalibrated(t, 1, PartitionHash, 50000, zipf)
		want := make(map[[3]int64]Result)
		for _, q := range queries {
			for _, agg := range aggs {
				q.Table, q.Agg = refTab, agg
				res, err := ref.Run(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				want[[3]int64{q.Low, q.High, int64(agg)}] = res
			}
		}
		for _, kind := range []PartitionKind{PartitionHash, PartitionRange, PartitionRangeBalanced} {
			for _, shards := range []int{2, 4, 8} {
				sys, tab := newShardedCalibrated(t, shards, kind, 50000, zipf)
				for _, q := range queries {
					for _, agg := range aggs {
						q.Table, q.Agg = tab, agg
						res, err := sys.Run(context.Background(), q)
						if err != nil {
							t.Fatal(err)
						}
						w := want[[3]int64{q.Low, q.High, int64(agg)}]
						if res.Value != w.Value || res.Found != w.Found || res.Rows != w.Rows {
							t.Errorf("zipf=%v %v shards=%d %v [%d,%d]: got (%d,%v,%d rows), unsharded (%d,%v,%d rows)",
								zipf, kind, shards, agg, q.Low, q.High,
								res.Value, res.Found, res.Rows, w.Value, w.Found, w.Rows)
						}
					}
				}
			}
		}
	}
}

// TestShardedGroupByMatchesUnsharded checks the GROUP BY decomposition:
// per-shard group hashes folded on the coordinator must reproduce the
// unsharded groups exactly, keys and order included.
func TestShardedGroupByMatchesUnsharded(t *testing.T) {
	ref, refTab := newShardedCalibrated(t, 1, PartitionHash, 50000, 1.3)
	want, err := ref.Run(context.Background(), GroupByQuery{Table: refTab, Low: 0, High: 20000, GroupWidth: 1000, Agg: Sum})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []PartitionKind{PartitionHash, PartitionRangeBalanced} {
		sys, tab := newShardedCalibrated(t, 4, kind, 50000, 1.3)
		got, err := sys.Run(context.Background(), GroupByQuery{Table: tab, Low: 0, High: 20000, GroupWidth: 1000, Agg: Sum})
		if err != nil {
			t.Fatal(err)
		}
		if got.Rows != want.Rows || len(got.Groups) != len(want.Groups) {
			t.Fatalf("%v: %d rows in %d groups, unsharded %d rows in %d groups",
				kind, got.Rows, len(got.Groups), want.Rows, len(want.Groups))
		}
		for i, g := range got.Groups {
			if g != want.Groups[i] {
				t.Errorf("%v group[%d] = %+v, unsharded %+v", kind, i, g, want.Groups[i])
			}
		}
	}
}

// TestRangePartitionPruning checks that a range predicate over a
// range-partitioned table prunes the non-overlapping shards from the scatter.
func TestRangePartitionPruning(t *testing.T) {
	sys, tab := newShardedCalibrated(t, 8, PartitionRange, 50000, 0)
	plan, err := sys.Plan(Query{Table: tab, Low: 0, High: 499}, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Fanout != 1 {
		t.Errorf("narrow range over 8 range shards: fanout %d, want 1 (plan %v)", plan.Fanout, plan)
	}
	res, err := sys.Run(context.Background(), Query{Table: tab, Low: 0, High: 499})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Fanout != 1 {
		t.Errorf("executed fanout %d, want 1", res.Plan.Fanout)
	}
	// Hash partitions hold every key range: no pruning possible.
	hsys, htab := newShardedCalibrated(t, 8, PartitionHash, 50000, 0)
	hplan, err := hsys.Plan(Query{Table: htab, Low: 0, High: 499}, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if hplan.Fanout != 8 {
		t.Errorf("hash partition fanout %d, want 8", hplan.Fanout)
	}
	// Correctness under pruning: same answer as unsharded.
	ref, refTab := newShardedCalibrated(t, 1, PartitionHash, 50000, 0)
	want, err := ref.Run(context.Background(), Query{Table: refTab, Low: 0, High: 499})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != want.Value || res.Rows != want.Rows {
		t.Errorf("pruned result (%d, %d rows) != unsharded (%d, %d rows)",
			res.Value, res.Rows, want.Value, want.Rows)
	}
}

// TestGatherReportsPrunedShards: both gathers — the scalar one behind Query
// and the grouped one behind ExecuteGroupBy — announce their scatter with the
// number of shards partition pruning skipped, and add it to shard.pruned.
func TestGatherReportsPrunedShards(t *testing.T) {
	sys, tab := newShardedCalibrated(t, 4, PartitionRange, 50000, 0)
	sys.EnableEventLog(4096)
	q := Query{Table: tab, Low: 0, High: 499}
	plan, err := sys.Plan(q, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Fanout != 1 || plan.pruned != 3 {
		t.Fatalf("one-shard range over 4 range shards: fanout %d, pruned %d", plan.Fanout, plan.pruned)
	}
	for name, run := range map[string]func() error{
		"Query": func() error { _, err := sys.Run(context.Background(), q); return err },
		"GroupByQuery": func() error {
			_, err := sys.Run(context.Background(), GroupByQuery{Table: tab, Low: q.Low, High: q.High, GroupWidth: 100})
			return err
		},
	} {
		before, seen := sys.MetricsSnapshot(), len(sys.EngineEvents())
		if err := run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := sys.MetricsSince(before).Counter("shard.pruned"); got != int64(plan.pruned) {
			t.Errorf("%s: shard.pruned rose by %d, the plan pruned %d", name, got, plan.pruned)
		}
		scatters := 0
		for _, e := range sys.EngineEvents()[seen:] {
			if e.Name != "shard.scatter" {
				continue
			}
			scatters++
			if e.A != int64(plan.Fanout) || e.B != int64(plan.pruned) {
				t.Errorf("%s: shard.scatter reports %d active, %d pruned; the plan has %d and %d",
					name, e.A, e.B, plan.Fanout, plan.pruned)
			}
		}
		if scatters != 1 {
			t.Errorf("%s: %d shard.scatter events, want 1", name, scatters)
		}
	}
}

// TestRangeBalancedCutsRebalance checks the rebalance sweep's premise:
// equal-width cuts overload the hot shard of a Zipf table, quantile cuts
// spread it near-evenly.
func TestRangeBalancedCutsRebalance(t *testing.T) {
	_, naive := newShardedCalibrated(t, 8, PartitionRange, 50000, 1.3)
	_, balanced := newShardedCalibrated(t, 8, PartitionRangeBalanced, 50000, 1.3)
	imbalance := func(rows []int64) float64 {
		var max, total int64
		for _, r := range rows {
			total += r
			if r > max {
				max = r
			}
		}
		return float64(max) / (float64(total) / float64(len(rows)))
	}
	ni, bi := imbalance(naive.ShardRows()), imbalance(balanced.ShardRows())
	if ni < 4 {
		t.Errorf("equal-width cuts on zipf data: max/mean imbalance %.2f, expected heavy (>4x) skew; rows %v",
			ni, naive.ShardRows())
	}
	// Range cuts cannot split a single hot key, so the balanced layout's
	// floor is the hot key's mass (~26% of rows at zipf 1.3, ~2.1x the
	// 8-shard mean); require at least a halving of the naive imbalance.
	if bi*2 > ni {
		t.Errorf("balanced cuts imbalance %.2f did not halve naive %.2f; rows %v",
			bi, ni, balanced.ShardRows())
	}
}

// newStragglingCluster builds a calibrated 4-shard cluster over one
// 100 000-row table with 10 % × 20 ms stragglers injected on every node,
// hedging at 2 ms — or, with noHedge, the reference arm: the hedgers are
// built and never armed.
func newStragglingCluster(t *testing.T, noHedge bool) (*System, *Table) {
	t.Helper()
	sys := New(Config{Device: SSD, PoolPages: 1024, Shards: 4, HedgeDelay: 2 * time.Millisecond})
	if noHedge {
		sys.hedge = 0
	}
	tab, err := sys.CreateTable("t", 100000, 33)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Calibrate(CalibrationOptions{MaxReads: 640}); err != nil {
		t.Fatal(err)
	}
	sys.InjectFaults(FaultSchedule{Windows: []FaultWindow{{
		StragglerRate:    0.10,
		StragglerLatency: 20 * time.Millisecond,
	}}})
	return sys, tab
}

// TestHedgingUnderStragglers checks the straggler-hedging policy: with a
// straggler-injecting fault schedule on every node, the hedged cluster
// answers identically to the unhedged one (speculative duplicates are
// deduplicated — exactly-once rows), issues hedges, wins some, and finishes
// in under half the unhedged time: the gather ends when its last winning
// copy lands, not when the losing stragglers do. A session drains as Run
// does, so the same query submitted alone is hedged the same way.
func TestHedgingUnderStragglers(t *testing.T) {
	// hedges reads the copies issued and the races they won.
	type hedges struct{ issued, wins int64 }
	run := func(noHedge, session bool) (Result, hedges) {
		sys, tab := newStragglingCluster(t, noHedge)
		q := Query{Table: tab, Low: 0, High: 99999}
		var res Result
		var err error
		if session {
			res, err = submitAndDrain(sys, q)
		} else {
			res, err = sys.Run(context.Background(), q)
		}
		if err != nil {
			t.Fatal(err)
		}
		return res, hedges{sinceNew(sys, "shard.hedge_issued"), sinceNew(sys, "shard.hedge_wins")}
	}
	hedged, hs := run(false, false)
	unhedged, uhs := run(true, false)
	if sub, shs := run(false, true); sub.Runtime != hedged.Runtime || shs != hs {
		t.Errorf("submitted alone the query ran %v with hedges %+v; under Run %v with %+v", sub.Runtime, shs, hedged.Runtime, hs)
	}
	if uhs.issued != 0 {
		t.Errorf("unhedged system issued %d hedges", uhs.issued)
	}
	if hs.issued == 0 {
		t.Error("hedged system issued no speculative reads under 10% stragglers")
	}
	if hs.wins == 0 {
		t.Error("no hedge ever won against a 20ms straggler")
	}
	if hedged.Value != unhedged.Value || hedged.Rows != unhedged.Rows || hedged.Found != unhedged.Found {
		t.Errorf("hedged answer (%d, %d rows) != unhedged (%d, %d rows): speculative read leaked into results",
			hedged.Value, hedged.Rows, unhedged.Value, unhedged.Rows)
	}
	t.Logf("hedged %v (%d issued, %d won), unhedged %v", hedged.Runtime, hs.issued, hs.wins, unhedged.Runtime)
	if hedged.Runtime > unhedged.Runtime/2 {
		t.Errorf("hedging did not halve the scatter: %v hedged vs %v unhedged", hedged.Runtime, unhedged.Runtime)
	}
}

// TestHedgedGatherStaysNearHealthy: a 4-shard full scan under 20 % × 20 ms
// stragglers runs within a few hedge delays of the same scan on a healthy
// cluster, on every fault seed. A read whose first speculative copy
// straggles too is raced again a delay later, so a straggler on the
// critical path costs delays, not its 20 ms. Measured on seeds 1–8: 3.3×
// to 4.4× the healthy 2.34 ms, i.e. healthy + 2.6…4.0 delays; one copy
// per read gave 23.9…24.3 ms on every seed.
func TestHedgedGatherStaysNearHealthy(t *testing.T) {
	const delay = 2 * time.Millisecond
	for seed := int64(1); seed <= 8; seed++ {
		sys := New(Config{Device: SSD, PoolPages: 1024, Shards: 4, HedgeDelay: delay})
		tab, err := sys.CreateTable("t", 100000, 33)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Calibrate(CalibrationOptions{MaxReads: 640}); err != nil {
			t.Fatal(err)
		}
		q := Query{Table: tab, Low: 0, High: 99999}
		healthy, err := sys.Run(context.Background(), q, Cold())
		if err != nil {
			t.Fatal(err)
		}
		sys.InjectFaults(FaultSchedule{Seed: seed, Windows: []FaultWindow{{
			StragglerRate:    0.20,
			StragglerLatency: 20 * time.Millisecond,
		}}})
		hedged, err := sys.Run(context.Background(), q, Cold())
		if err != nil {
			t.Fatal(err)
		}
		if hedged.Value != healthy.Value || hedged.Rows != healthy.Rows {
			t.Errorf("seed %d: hedged answer (%d, %d rows) != healthy (%d, %d rows)",
				seed, hedged.Value, hedged.Rows, healthy.Value, healthy.Rows)
		}
		issued := sinceNew(sys, "shard.hedge_issued")
		t.Logf("seed %d: healthy %v, hedged under stragglers %v (%d copies issued)", seed, healthy.Runtime, hedged.Runtime, issued)
		if bound := healthy.Runtime + 5*delay; hedged.Runtime > bound {
			t.Errorf("seed %d: hedged gather under stragglers took %v, healthy %v; want at most %v (%d copies issued)",
				seed, hedged.Runtime, healthy.Runtime, bound, issued)
		}
	}
}

// TestTimeoutWithHedgeCopiesInFlight: a sharded query whose deadline
// passes while speculative copies are still racing returns a typed error,
// and the drain behind it lands every copy — no pin, no live process, and
// every hedge record back on its free list.
func TestTimeoutWithHedgeCopiesInFlight(t *testing.T) {
	sys, tab := newStragglingCluster(t, false)
	sys.InjectFaults(FaultSchedule{Windows: []FaultWindow{{
		StragglerRate:    0.5,
		StragglerLatency: 20 * time.Millisecond,
	}}})
	sys.EnableEventLog(1 << 16)
	_, err := sys.Run(context.Background(), Query{Table: tab, Low: 0, High: 99999}, Cold(), WithTimeout(5*time.Millisecond))
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	var exit time.Duration
	var issued int
	for _, e := range sys.EngineEvents() {
		switch e.Name {
		case "query.done":
			exit = e.At
		case "shard.hedge.issue":
			issued++
		}
	}
	// The copies went out before the abort; the drain ran on past the
	// query's exit while the stragglers among them landed.
	if n := sinceNew(sys, "shard.hedge_issued"); issued == 0 || int64(issued) != n {
		t.Fatalf("%d shard.hedge.issue events, %d copies issued", issued, n)
	}
	if end := time.Duration(sys.env.Now()); exit == 0 || end <= exit {
		t.Errorf("the query exited at %v and the clock stopped at %v: no copy was in flight at the abort", exit, end)
	}
	assertNoLeaks(t, sys)
	for _, n := range sys.nodes {
		if r := n.Hedge.Races(); r != 0 {
			t.Errorf("node %d: %d hedge races still running after the drain", n.ID, r)
		}
	}
}

// TestShardedGroupByUnderReadErrors: a scatter-gather group-by meets read
// errors with the same retry policy as a scalar gather — with the default
// policy and with WithRetry, 5 % failed reads still return every group of
// the healthy run, and a device that fails every read returns
// ErrDeviceFault rather than panicking.
func TestShardedGroupByUnderReadErrors(t *testing.T) {
	sys, tab := newShardedCalibrated(t, 4, PartitionHash, 64000, 1.3)
	q := GroupByQuery{Table: tab, Low: 0, High: 15999, GroupWidth: 1000, Agg: Sum}
	healthy, err := sys.Run(context.Background(), q, Cold())
	if err != nil {
		t.Fatal(err)
	}
	if len(healthy.Groups) != 16 {
		t.Fatalf("healthy group-by returned %d groups, want 16", len(healthy.Groups))
	}
	retry := WithRetry(RetryPolicy{MaxAttempts: 6})
	for _, seed := range []int64{1, 7, 42} {
		before := sys.FaultStats().Errors
		sys.InjectFaults(FaultSchedule{Seed: seed, Windows: []FaultWindow{{ErrorRate: 0.05}}})
		for _, c := range []struct {
			name string
			opts []QueryOption
		}{{"default retry", []QueryOption{Cold()}}, {"WithRetry", []QueryOption{Cold(), retry}}} {
			got, err := sys.Run(context.Background(), q, c.opts...)
			if err != nil {
				t.Errorf("seed %d, %s: %v", seed, c.name, err)
			} else if !reflect.DeepEqual(got.Groups, healthy.Groups) {
				t.Errorf("seed %d, %s: groups under read errors\n  %v\nhealthy\n  %v", seed, c.name, got.Groups, healthy.Groups)
			}
		}
		if sys.FaultStats().Errors == before {
			t.Errorf("seed %d: no read failed; the runs must meet errors", seed)
		}
	}
	sys.InjectFaults(FaultSchedule{Windows: []FaultWindow{{ErrorRate: 1}}})
	if _, err := sys.Run(context.Background(), q, Cold()); !errors.Is(err, ErrDeviceFault) {
		t.Errorf("every read failing: err = %v, want ErrDeviceFault", err)
	}
	sys.ClearFaults()
	assertNoLeaks(t, sys)
}

// TestStragglingGatherTraceEndsAtRuntime: the query span and query.done
// mark the query's exit, the instant Runtime reads — not the drain, which
// runs on past it while the losing straggler copies land.
func TestStragglingGatherTraceEndsAtRuntime(t *testing.T) {
	sys, tab := newStragglingCluster(t, false)
	sys.EnableEventLog(1 << 16)
	var tel QueryTelemetry
	res, err := sys.Run(context.Background(), Query{Table: tab, Low: 0, High: 99999}, WithTrace(&tel))
	if err != nil {
		t.Fatal(err)
	}
	if tel.Root.Duration != res.Runtime || tel.Runtime != res.Runtime {
		t.Errorf("query span %v, telemetry runtime %v; Runtime %v", tel.Root.Duration, tel.Runtime, res.Runtime)
	}
	if n := dropped(sys); n != 0 {
		t.Fatalf("event ring wrapped (%d dropped)", n)
	}
	var start, done []EngineEvent
	for _, e := range sys.EngineEvents() {
		switch e.Name {
		case "query.start":
			start = append(start, e)
		case "query.done":
			done = append(done, e)
		}
	}
	if len(start) != 1 || len(done) != 1 {
		t.Fatalf("%d query.start and %d query.done events, want one of each", len(start), len(done))
	}
	if done[0].B != int64(res.Runtime) || done[0].At != start[0].At+res.Runtime {
		t.Errorf("query.done at %v with runtime %v; the query started at %v and ran %v",
			done[0].At, time.Duration(done[0].B), start[0].At, res.Runtime)
	}
	if end := time.Duration(sys.env.Now()); end <= done[0].At {
		t.Errorf("the clock stopped at %v, the query's exit: the drain ran nothing past it", end)
	}
}

// TestHedgeDelayOffCriticalPath: on a healthy cluster no read outlasts the
// hedge delay, so no entry point that scatters may report the delay in its
// Runtime — hedging at 1 ms, at 1 h and never armed read the same time. The
// drain still runs each armed timer out before the call returns: no process
// is left live for the next query.
func TestHedgeDelayOffCriticalPath(t *testing.T) {
	const lo, hi = 0, 49999
	q := func(tab *Table) Query { return Query{Table: tab, Low: lo, High: hi} }
	entries := []struct {
		name string
		run  func(*System, *Table) (time.Duration, error)
	}{
		{"Query", func(sys *System, tab *Table) (time.Duration, error) {
			res, err := sys.Run(context.Background(), q(tab), Cold())
			return res.Runtime, err
		}},
		{"Session.Submit", func(sys *System, tab *Table) (time.Duration, error) {
			res, err := submitAndDrain(sys, q(tab), Cold())
			return res.Runtime, err
		}},
		{"WithPlan", func(sys *System, tab *Table) (time.Duration, error) {
			res, err := sys.Run(context.Background(), q(tab), WithPlan(Plan{Method: FullTableScan, Degree: 2}), Cold())
			return res.Runtime, err
		}},
		{"GroupByQuery", func(sys *System, tab *Table) (time.Duration, error) {
			res, err := sys.Run(context.Background(), GroupByQuery{Table: tab, Low: lo, High: hi, GroupWidth: 1000, Agg: Sum}, Cold())
			return res.Runtime, err
		}},
	}
	arms := []struct {
		name    string
		delay   time.Duration
		noHedge bool
	}{
		{"HedgeDelay 1ms", time.Millisecond, false},
		{"HedgeDelay 1h", time.Hour, false},
		{"unhedged", time.Millisecond, true},
	}
	want := map[string]time.Duration{}
	for _, arm := range arms {
		sys := New(Config{Device: SSD, PoolPages: 1024, Shards: 4, HedgeDelay: arm.delay})
		if arm.noHedge {
			sys.hedge = 0
		}
		tab, err := sys.CreateTable("t", 50000, 33)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Calibrate(CalibrationOptions{MaxReads: 640}); err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			rt, err := e.run(sys, tab)
			if err != nil {
				t.Fatalf("%s, %s: %v", arm.name, e.name, err)
			}
			if n := sys.env.LiveProcs(); n != 0 {
				t.Errorf("%s, %s: %d processes live at return", arm.name, e.name, n)
			}
			if n := sinceNew(sys, "shard.hedge_issued"); n != 0 {
				t.Errorf("%s, %s: a healthy cluster issued %d hedges", arm.name, e.name, n)
			}
			if w, ok := want[e.name]; !ok {
				want[e.name] = rt
			} else if rt != w {
				t.Errorf("%s, %s: Runtime %v, %s read %v", arm.name, e.name, rt, arms[0].name, w)
			}
		}
	}
}

// TestShardedMakespanScales checks the scatter's point: spreading a scan
// over N devices divides the makespan.
func TestShardedMakespanScales(t *testing.T) {
	runtimes := make(map[int]time.Duration)
	for _, shards := range []int{1, 8} {
		sys, tab := newShardedCalibrated(t, shards, PartitionHash, 200000, 0)
		res, err := sys.Run(context.Background(), Query{Table: tab, Low: 0, High: 199999}, Cold())
		if err != nil {
			t.Fatal(err)
		}
		runtimes[shards] = res.Runtime
	}
	if runtimes[8] <= 0 || runtimes[1] < 2*runtimes[8] {
		t.Errorf("full scan: 1 shard %v, 8 shards %v — want >2x makespan improvement",
			runtimes[1], runtimes[8])
	}
}

// TestShardedSingleNodeOpsRejected checks that the single-node operations
// reject partitioned tables with a clear error instead of scanning one
// partition silently.
func TestShardedSingleNodeOpsRejected(t *testing.T) {
	sys, tab := newShardedCalibrated(t, 4, PartitionHash, 20000, 0)
	_, updateErr := sys.Run(context.Background(), UpdateQuery{Table: tab, Low: 0, High: 99, Delta: 1})
	_, joinErr := sys.Run(context.Background(), JoinQuery{Build: tab, Probe: tab, Low: 0, High: 99})
	_, explainErr := sys.Explain(Query{Table: tab, Low: 0, High: 99}, PlanOptions{})
	for op, err := range map[string]error{"UpdateQuery": updateErr, "JoinQuery": joinErr, "Explain": explainErr} {
		if !errors.Is(err, ErrInvalidQuery) {
			t.Errorf("%s on a sharded table: err = %v, want ErrInvalidQuery", op, err)
		}
	}
	if _, err := sys.CreateTable("syn", 1000, 33, WithSyntheticData()); err == nil {
		t.Error("synthetic sharded table succeeded; want error")
	}
}

// TestCreateTableRejectsUnknownPartition: a partition kind outside the
// three that exist fails CreateTable on every shard count, instead of
// building a hash-partitioned table that reports the bogus kind.
func TestCreateTableRejectsUnknownPartition(t *testing.T) {
	for _, shards := range []int{1, 4} {
		sys := New(Config{Device: SSD, PoolPages: 1024, Shards: shards})
		for _, k := range []PartitionKind{-1, 3, 7} {
			if tab, err := sys.CreateTable(fmt.Sprint("bad", int(k)), 1000, 33, WithPartition(k)); err == nil {
				t.Errorf("%d shards: WithPartition(%d) built a table partitioned %v; want an error", shards, k, tab.Partitioning())
			}
		}
		for _, k := range []PartitionKind{PartitionHash, PartitionRange, PartitionRangeBalanced} {
			tab, err := sys.CreateTable(k.String(), 1000, 33, WithPartition(k))
			if err != nil {
				t.Fatalf("%d shards: WithPartition(%v): %v", shards, k, err)
			}
			if shards > 1 && tab.Partitioning() != k {
				t.Errorf("%d shards: table partitioned %v, want %v", shards, tab.Partitioning(), k)
			}
		}
	}
}

// TestShardedProgressAndEvents checks the observability surface: the
// shard.* events land in the engine log, and every shard's scan reports
// its rows in its shard.partial event.
func TestShardedProgressAndEvents(t *testing.T) {
	sys := New(Config{Device: SSD, PoolPages: 1024, Shards: 4})
	sys.EnableEventLog(4096)
	tab, err := sys.CreateTable("t", 50000, 33)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Calibrate(CalibrationOptions{MaxReads: 640}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(context.Background(), Query{Table: tab, Low: 0, High: 49999}); err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	rows := map[int64]int64{} // shard.partial: shard → rows
	for _, e := range sys.EngineEvents() {
		seen[e.Name]++
		if e.Name == "shard.partial" {
			rows[e.A] += e.B
		}
	}
	if seen["shard.scatter"] != 1 {
		t.Errorf("shard.scatter events = %d, want 1", seen["shard.scatter"])
	}
	if seen["shard.partial"] != 4 {
		t.Errorf("shard.partial events = %d, want 4", seen["shard.partial"])
	}
	if seen["shard.gather.done"] != 1 {
		t.Errorf("shard.gather.done events = %d, want 1", seen["shard.gather.done"])
	}
	for shard := int64(0); shard < 4; shard++ {
		if rows[shard] == 0 {
			t.Errorf("shard %d read no rows during a full scatter scan (partials %v)", shard, rows)
		}
	}
}

// TestResultRollsUpNodeDeviceTraffic: Result.PageReads is the sum of the
// device requests on every node the query touched — the one on a single
// node, all four of a gather — and IOThroughputMBps is the bytes they moved
// over the longest device window. Every request kind shares the rollup.
func TestResultRollsUpNodeDeviceTraffic(t *testing.T) {
	for _, shards := range []int{1, 4} {
		sys, tab := newShardedCalibrated(t, shards, PartitionHash, 50000, 0)
		q := Query{Table: tab, Low: 0, High: 49999, Agg: Count}
		runs := map[string]func() (Result, error){
			"Query": func() (Result, error) { return sys.Run(context.Background(), q, Cold()) },
			"WithPlan": func() (Result, error) {
				return sys.Run(context.Background(), q, WithPlan(Plan{Method: FullTableScan, Degree: 2}), Cold())
			},
			"GroupByQuery": func() (Result, error) {
				return sys.Run(context.Background(), GroupByQuery{Table: tab, Low: q.Low, High: q.High, GroupWidth: 1000}, Cold())
			},
		}
		for name, run := range runs {
			res, err := run()
			if err != nil {
				t.Fatal(err)
			}
			var requests, bytes int64
			var elapsed time.Duration
			for i, n := range sys.nodes {
				io := n.Dev.Metrics().Snapshot()
				if io.Requests == 0 {
					t.Errorf("%s on %d shards: node %d's device served no reads", name, shards, i)
				}
				requests += io.Requests
				bytes += io.Bytes
				elapsed = max(elapsed, time.Duration(io.Elapsed))
			}
			if res.PageReads != requests || requests == 0 {
				t.Errorf("%s on %d shards: PageReads = %d, node devices total %d", name, shards, res.PageReads, requests)
			}
			if want := float64(bytes) / 1e6 / elapsed.Seconds(); res.IOThroughputMBps != want {
				t.Errorf("%s on %d shards: IOThroughputMBps = %v, want %v", name, shards, res.IOThroughputMBps, want)
			}
			if res.Rows != 50000 {
				t.Errorf("%s on %d shards: counted %d rows, want 50000", name, shards, res.Rows)
			}
		}
	}
}

// A forced plan's progress estimate covers what runs. Partition pruning
// narrows this range to shard 0, so only that shard's scan counts: a full
// scan's estimate is its heap, not the table's. A WithPlan plan carries no
// row estimate, so an index scan's rows are the optimizer's estimate for the
// range — the rows a planned scan is priced at — and either estimate lands
// within a few percent of the pages the scan goes on to process.
func TestForcedShardedProgressEstimatesWhatRuns(t *testing.T) {
	sys, tab := newShardedCalibrated(t, 4, PartitionRange, 50000, 0)
	q := Query{Table: tab, Low: 0, High: 999}
	if got := tab.activeShards(q.Low, q.High); len(got) != 1 || got[0] != 0 {
		t.Fatalf("active shards %v, want only shard 0", got)
	}
	planned, err := sys.Plan(q, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	part := &tab.parts[0]
	rows := int64(planned.EstimatedRows + 0.5)
	leaves := max((rows+btree.DefaultLeafCap-1)/btree.DefaultLeafCap, 1)
	for _, c := range []struct {
		method AccessMethod
		want   int64
	}{
		{FullTableScan, part.tab.Pages()},
		{IndexScan, int64(len(part.idx.DescentPath())) + leaves + rows},
	} {
		method, want := c.method, c.want
		ses := openSession(t, sys)
		sub, err := ses.Submit(q, WithPlan(Plan{Method: method, Degree: 1}))
		if err != nil {
			t.Fatal(err)
		}
		if err := ses.Drain(); err != nil {
			t.Fatal(err)
		}
		p := sub.Progress()
		if p.EstimatedPages != want {
			t.Errorf("%v: EstimatedPages = %d, want %d (the table has %d heap pages)",
				method, p.EstimatedPages, want, tab.Pages())
		}
		if diff := p.EstimatedPages - p.PagesProcessed; diff*20 > p.PagesProcessed || -diff*20 > p.PagesProcessed {
			t.Errorf("%v: EstimatedPages = %d against %d processed, want within 5 %%",
				method, p.EstimatedPages, p.PagesProcessed)
		}
	}
}
