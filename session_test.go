package pioqo

import (
	"testing"

	"pioqo/internal/broker"
)

func TestSessionStreamingAdmission(t *testing.T) {
	sys, tab := newCalibrated(t, SSD, 50000, 33)
	q1 := Query{Table: tab, Low: 0, High: 999}
	q2 := Query{Table: tab, Low: 30000, High: 30999}

	var want []Result
	for _, q := range []Query{q1, q2} {
		res, err := sys.Execute(q, Cold())
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
	total := ses.b.Total()
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

func TestSystemSubmitDefaultSession(t *testing.T) {
	sys, tab := newCalibrated(t, SSD, 50000, 33)
	sub, err := sys.Submit(Query{Table: tab, Low: 0, High: 99})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	res, err := sub.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Rows == 0 {
		t.Errorf("result %+v, want a non-empty match", res)
	}

	uncal := New(Config{Device: SSD})
	tab2, err := uncal.CreateTable("t", 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := uncal.Submit(Query{Table: tab2}); err == nil {
		t.Error("uncalibrated Submit accepted")
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
