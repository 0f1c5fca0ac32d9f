package pioqo

import (
	"strings"
	"testing"
)

// operatorNode returns the operator span under a query telemetry root: the
// child that is neither the optimize nor the admit phase.
func operatorNode(t *testing.T, tel QueryTelemetry) *SpanNode {
	t.Helper()
	if tel.Root == nil {
		t.Fatal("telemetry has no root span")
	}
	if tel.Root.Name != "query" {
		t.Fatalf("root span = %q, want \"query\"", tel.Root.Name)
	}
	for _, c := range tel.Root.Children {
		if c.Name != "optimize" && c.Name != "admit" {
			return c
		}
	}
	t.Fatalf("no operator span under query root (children: %v)", tel.Root.Children)
	return nil
}

func TestTelemetrySpanTreeSumsToRuntime(t *testing.T) {
	sys, tab := newCalibrated(t, SSD, 50000, 33)
	var tel QueryTelemetry
	res, err := sys.Execute(Query{Table: tab, Low: 0, High: 4999}, Cold(), WithTrace(&tel))
	if err != nil {
		t.Fatal(err)
	}
	if tel.Runtime != res.Runtime {
		t.Errorf("telemetry runtime %v != result runtime %v", tel.Runtime, res.Runtime)
	}
	op := operatorNode(t, tel)
	// The operator's virtual time accounts for the query's runtime within
	// startup overhead.
	if op.Duration < res.Runtime*95/100 || op.Duration > res.Runtime*105/100 {
		t.Errorf("operator span %v vs runtime %v: not within 5%%", op.Duration, res.Runtime)
	}
	if tel.Root.Duration < op.Duration {
		t.Errorf("query span %v shorter than its operator %v", tel.Root.Duration, op.Duration)
	}
	// Worker children carry the io_wait/cpu breakdown, and each worker's
	// parts stay within its span.
	workers := 0
	for _, w := range op.Children {
		if !strings.HasPrefix(w.Name, "fts-w") && !strings.HasPrefix(w.Name, "pis-w") {
			continue
		}
		workers++
		if _, ok := w.Attr("io_wait"); !ok {
			t.Errorf("worker %s has no io_wait attribute", w.Name)
		}
		if _, ok := w.Attr("pages"); !ok {
			t.Errorf("worker %s has no pages attribute", w.Name)
		}
		if w.Duration > op.Duration {
			t.Errorf("worker %s (%v) outlives the operator (%v)", w.Name, w.Duration, op.Duration)
		}
	}
	if workers != res.Plan.Degree {
		t.Errorf("got %d worker spans, want one per worker (degree %d)", workers, res.Plan.Degree)
	}
}

func TestMetricsAttributionAcrossQueries(t *testing.T) {
	// Two queries back-to-back on one system: the cold run owns the misses
	// and device reads, the warm re-run of the same range owns only hits.
	// Counters are cumulative, so attribution is strictly by snapshot diff.
	sys, tab := newCalibrated(t, SSD, 50000, 33)
	// ~500 matching rows through the index: the touched heap pages plus the
	// index path fit the 1024-frame pool, so the warm re-run is fully
	// cached. The plan is forced — a full scan of the 1516-page heap would
	// not be, and which of the two the optimizer picks at 1 % is its
	// business, not this test's.
	q := Query{Table: tab, Low: 1000, High: 1499}
	plan := Plan{Method: IndexScan, Degree: 8}

	total0 := sys.MetricsSnapshot()
	var cold, warm QueryTelemetry
	if _, err := sys.ExecutePlan(q, plan, Cold(), WithTrace(&cold)); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ExecutePlan(q, plan, WithTrace(&warm)); err != nil {
		t.Fatal(err)
	}
	totals := sys.MetricsSince(total0)

	if cold.Metrics.Counter("buffer.misses") == 0 {
		t.Error("cold query attributed no buffer misses")
	}
	if cold.Metrics.Counter("device.requests") == 0 {
		t.Error("cold query attributed no device reads")
	}
	if warm.Metrics.Counter("buffer.hits") == 0 {
		t.Error("warm query attributed no buffer hits")
	}
	if n := warm.Metrics.Counter("buffer.misses"); n != 0 {
		t.Errorf("warm re-run of a cached range attributed %d misses, want 0", n)
	}
	if n := warm.Metrics.Counter("device.requests"); n != 0 {
		t.Errorf("warm re-run attributed %d device reads, want 0", n)
	}
	// Per-query diffs partition the whole interval: nothing leaks between
	// queries, nothing is counted twice.
	for _, name := range []string{"device.requests", "buffer.hits", "buffer.misses", "exec.scans"} {
		sum := cold.Metrics.Counter(name) + warm.Metrics.Counter(name)
		if got := totals.Counter(name); got != sum {
			t.Errorf("%s: whole-interval delta %d != cold %d + warm %d",
				name, got, cold.Metrics.Counter(name), warm.Metrics.Counter(name))
		}
	}
}

func TestPISQueueDepthMetricMatchesDegree(t *testing.T) {
	// The paper's §2 observable through the metrics registry: a PIS run
	// with 8 workers sustains a mean device queue depth of ~8, reported by
	// the snapshot diff's time-weighted gauge mean.
	sys := New(Config{Device: SSD, PoolPages: 512})
	tab, err := sys.CreateTable("t", 60000, 1, WithSyntheticData())
	if err != nil {
		t.Fatal(err)
	}
	before := sys.MetricsSnapshot()
	res, err := sys.ExecutePlan(
		Query{Table: tab, Low: 0, High: 17999},
		Plan{Method: IndexScan, Degree: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows == 0 {
		t.Fatal("query matched nothing")
	}
	d := sys.MetricsSince(before)
	g, ok := d.Gauges["device.queue_depth"]
	if !ok {
		t.Fatal("diff has no device.queue_depth gauge")
	}
	if g.Mean < 6.5 || g.Mean > 8.5 {
		t.Errorf("mean device queue depth = %.2f, want ~8 for PIS degree 8", g.Mean)
	}
	if g.Last != 0 {
		t.Errorf("queue depth after the query = %.0f, want drained to 0", g.Last)
	}
	if d.Elapsed != res.Runtime {
		t.Errorf("diff interval %v != query runtime %v", d.Elapsed, res.Runtime)
	}
}

func TestObserverReceivesEveryQuery(t *testing.T) {
	sys, tab := newCalibrated(t, SSD, 20000, 33)
	var seen []QueryTelemetry
	sys.SetObserver(ObserverFunc(func(tel QueryTelemetry) { seen = append(seen, tel) }))
	if _, err := sys.Execute(Query{Table: tab, Low: 0, High: 199}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Execute(Query{Table: tab, Low: 0, High: 19999}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 {
		t.Fatalf("observer saw %d queries, want 2", len(seen))
	}
	for i, tel := range seen {
		if tel.Root == nil || tel.Runtime <= 0 {
			t.Errorf("query %d: incomplete telemetry %+v", i, tel)
		}
	}
	if seen[1].Plan.Method != FullTableScan {
		t.Errorf("broad query planned as %v, want a full scan", seen[1].Plan.Method)
	}
	sys.SetObserver(nil)
	if _, err := sys.Execute(Query{Table: tab, Low: 0, High: 199}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 {
		t.Error("observer still called after being removed")
	}
}

func TestTelemetryOffCostsNothing(t *testing.T) {
	sys, tab := newCalibrated(t, SSD, 20000, 33)
	res, err := sys.Execute(Query{Table: tab, Low: 0, High: 199})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runtime <= 0 {
		t.Error("non-positive runtime")
	}
	// No observer and no capture: the same query again must not have grown
	// any trace state — exercised here simply by both paths agreeing.
	var tel QueryTelemetry
	res2, err := sys.Execute(Query{Table: tab, Low: 0, High: 199}, WithTrace(&tel))
	if err != nil {
		t.Fatal(err)
	}
	if tel.Root == nil {
		t.Fatal("capture produced no span tree")
	}
	if res2.Rows != res.Rows {
		t.Errorf("telemetry changed the answer: %d vs %d rows", res2.Rows, res.Rows)
	}
	if tel.Metrics.Elapsed != res2.Runtime {
		t.Errorf("metrics interval %v != runtime %v", tel.Metrics.Elapsed, res2.Runtime)
	}
}
