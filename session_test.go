package pioqo

import (
	"context"
	"reflect"
	"testing"

	"pioqo/internal/broker"
	"pioqo/internal/table"
)

func TestSessionStreamingAdmission(t *testing.T) {
	sys, tab := newCalibrated(t, SSD, 50000, 33)
	q1 := Query{Table: tab, Low: 0, High: 999}
	q2 := Query{Table: tab, Low: 30000, High: 30999}

	var want []Result
	for _, q := range []Query{q1, q2} {
		res, err := sys.Run(context.Background(), q, Cold())
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res)
	}
	sys.FlushBufferPool()

	ses, err := sys.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	subs := make([]*Submission, 2)
	for i, q := range []Query{q1, q2} {
		if subs[i], err = ses.Submit(q); err != nil {
			t.Fatal(err)
		}
		if subs[i].Done() {
			t.Fatalf("submission %d done before Drain", i)
		}
	}
	if err := ses.Drain(); err != nil {
		t.Fatal(err)
	}
	for i, sub := range subs {
		res, err := sub.Result()
		if err != nil {
			t.Fatal(err)
		}
		if res.Value != want[i].Value || res.Rows != want[i].Rows {
			t.Errorf("query %d: session (%d, %d rows) vs serial (%d, %d rows)",
				i, res.Value, res.Rows, want[i].Value, want[i].Rows)
		}
		if adm := sub.Admission(); adm.Budget <= 0 {
			t.Errorf("query %d: budget %d, want a bounded two-way split", i, adm.Budget)
		}
	}

	// The session stays open: a third query submitted to the now-idle
	// broker is a sole query and gets an unbounded lease.
	sub3, err := ses.Submit(q1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ses.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := sub3.Result(); err != nil {
		t.Fatal(err)
	}
	if adm := sub3.Admission(); adm.Budget != 0 {
		t.Errorf("idle-session query budget = %d, want 0 (unbounded)", adm.Budget)
	}
}

// TestSessionRunsThePlanItSubmitted submits two ten-row HDD index ranges
// together. Each is planned once, at submit: the first alone on an idle
// broker, so unbounded (PIS32 here), the second under the two-way fair
// share. The first is leased exactly the depth its plan priced — the whole
// supply, not half of it — so the second waits for those credits, and each
// query runs the plan it was submitted with.
func TestSessionRunsThePlanItSubmitted(t *testing.T) {
	sys := New(Config{Device: HDD, PoolPages: 1024, Seed: 1})
	tab, err := sys.CreateTable("t", 200000, 33, WithSyntheticData())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Calibrate(CalibrationOptions{MaxReads: 640}); err != nil {
		t.Fatal(err)
	}
	ses, err := sys.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	q1 := Query{Table: tab, Low: 50000, High: 50009}
	q2 := Query{Table: tab, Low: 150000, High: 150009}
	want1, err := sys.Plan(q1, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The second submit sees one party ahead of it and both queries
	// interested in the table's scan.
	total := sys.broker.Total()
	want2, err := sys.Plan(q2, PlanOptions{QueueBudget: broker.SplitCredits(total, 2)[0], ShareParties: 2})
	if err != nil {
		t.Fatal(err)
	}
	if want1.Method != IndexScan || want2.Method != IndexScan || int(want1.depth+want2.depth) <= total {
		t.Fatalf("setup: plans %v (depth %d) and %v (depth %d) on %d credits, want index scans that do not fit together",
			want1, want1.depth, want2, want2.depth, total)
	}

	sub1, err := ses.Submit(q1)
	if err != nil {
		t.Fatal(err)
	}
	sub2, err := ses.Submit(q2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ses.Drain(); err != nil {
		t.Fatal(err)
	}
	for i, c := range []struct {
		sub  *Submission
		want Plan
	}{{sub1, want1}, {sub2, want2}} {
		res, err := c.sub.Result()
		if err != nil {
			t.Fatal(err)
		}
		if adm := c.sub.Admission(); adm.Budget != int(c.want.depth) {
			t.Errorf("query %d leased %d credits, want the %d its plan %v priced", i+1, adm.Budget, c.want.depth, c.want)
		}
		if res.Plan != c.want {
			t.Errorf("query %d ran %v, submitted with %v", i+1, res.Plan, c.want)
		}
	}
	if w1, w2 := sub1.Admission().Wait, sub2.Admission().Wait; w1 != 0 || w2 <= 0 {
		t.Errorf("admission waits %v and %v, want 0 and the first query's run", w1, w2)
	}
}

// openSession opens a session on sys, failing the test if it cannot.
func openSession(t *testing.T, sys *System) *Session {
	t.Helper()
	ses, err := sys.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	return ses
}

// sessionRequests are the requests TestSessionRunsEveryRequest submits to
// a lifecycle fixture. On one node: both join methods, a scan, a group-by
// and an update, the update over a range of t that none of the others
// aggregates. The index NL-join comes first: submitted to an idle broker it
// plans unbounded, as under Run, and so keeps its method (a join's
// ProbeRows follows its method). On a sharded fixture, where joins and
// updates are rejected: a scan and a group-by.
func sessionRequests(f lifecycleFixture) []Request {
	scans := []Request{
		Query{Table: f.t, Low: 0, High: 9999, Agg: Sum},
		GroupByQuery{Table: f.t, Low: 0, High: 9999, GroupWidth: 1000, Agg: Sum},
	}
	if f.t.sharded() {
		return scans
	}
	return append([]Request{
		JoinQuery{Build: f.skewed, Probe: f.big, Low: 0, High: 29999},
		JoinQuery{Build: f.t, Probe: f.big, Low: 0, High: 29999},
	}, append(scans, UpdateQuery{Table: f.t, Low: 20000, High: 29999, Delta: 7})...)
}

// answer is what a Result says about the data. The rest — the plan, its
// runtime, the device traffic — is how the run went: a session plans each
// request under its broker's fair share, and its requests share the
// devices.
func answer(res Result) Result {
	res.Plan, res.Runtime, res.PageReads, res.IOThroughputMBps = Plan{}, 0, 0, 0
	return res
}

// TestSessionRunsEveryRequest: one session takes every request kind — on a
// single-node system a scan, a group-by, a hash join, an index NL-join and
// an update; on a 4-shard system a scan and a group-by — and one Drain runs
// them together. Each submission's answer is the one Run gives for the same
// request on a twin system, and the updated table holds the same rows
// after.
func TestSessionRunsEveryRequest(t *testing.T) {
	for _, shards := range []int{1, 4} {
		f, twin := newLifecycleFixture(t, shards), newLifecycleFixture(t, shards)
		ses := openSession(t, f.sys)
		reqs := sessionRequests(f)
		subs := make([]*Submission, len(reqs))
		for i, req := range reqs {
			var err error
			if subs[i], err = ses.Submit(req); err != nil {
				t.Fatalf("%d shards: Submit(%+v): %v", shards, req, err)
			}
		}
		if err := ses.Drain(); err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		for i, req := range sessionRequests(twin) {
			want, err := twin.sys.Run(context.Background(), req)
			if err != nil {
				t.Fatalf("%d shards: Run(%+v): %v", shards, req, err)
			}
			got, err := subs[i].Result()
			if err != nil {
				t.Fatalf("%d shards: submission %d: %v", shards, i, err)
			}
			if j := want.Plan.Join; j != nil && got.Plan.Join.Method != j.Method {
				t.Errorf("%d shards: join %d ran %s in the session, %s under Run", shards, i, got.Plan.Join.Method, j.Method)
			}
			if !reflect.DeepEqual(answer(got), answer(want)) {
				t.Errorf("%d shards: %T in a session answered\n%+v\nRun answered\n%+v", shards, req, answer(got), answer(want))
			}
		}
		if shards == 1 {
			got, want := f.t.one().tab.(*table.Materialized), twin.t.one().tab.(*table.Materialized)
			for id := range f.t.Rows() {
				if got.RowAt(id) != want.RowAt(id) {
					t.Fatalf("row %d is %+v after the session, %+v after Run", id, got.RowAt(id), want.RowAt(id))
				}
			}
		}
		assertNoLeaks(t, f.sys)
	}
}

func TestSessionTelemetryRecordsAdmission(t *testing.T) {
	sys, tab := newCalibrated(t, SSD, 50000, 33)
	ses, err := sys.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	var tel1, tel2 QueryTelemetry
	if _, err := ses.Submit(Query{Table: tab, Low: 0, High: 999}, WithTrace(&tel1)); err != nil {
		t.Fatal(err)
	}
	if _, err := ses.Submit(Query{Table: tab, Low: 25000, High: 25999}, WithTrace(&tel2)); err != nil {
		t.Fatal(err)
	}
	if err := ses.Drain(); err != nil {
		t.Fatal(err)
	}
	for i, tel := range []QueryTelemetry{tel1, tel2} {
		if tel.Root == nil {
			t.Fatalf("query %d: no span tree captured", i)
		}
		var admit *SpanNode
		tel.Root.Walk(func(n *SpanNode) {
			if n.Name == "admit" {
				admit = n
			}
		})
		if admit == nil {
			t.Fatalf("query %d: no admit span in trace:\n%s", i, tel.Tree())
		}
		if _, ok := admit.Attr("budget"); !ok {
			t.Errorf("query %d: admit span missing budget attribute", i)
		}
	}
}
