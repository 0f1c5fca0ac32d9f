package pioqo

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"testing"
	"time"

	"pioqo/internal/cost"
	"pioqo/internal/sim"
)

// newAdaptiveWorld builds a calibrated system with the event log on.
func newAdaptiveWorld(t *testing.T, dev DeviceKind) (*System, *Table) {
	t.Helper()
	sys := New(Config{Device: dev, PoolPages: 4096})
	sys.EnableEventLog(4096)
	tab, err := sys.CreateTable("t", 200000, 33)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Calibrate(CalibrationOptions{MaxReads: 800, StopThreshold: -1}); err != nil {
		t.Fatal(err)
	}
	return sys, tab
}

func eventCount(sys *System, name string) int {
	n := 0
	for _, ev := range sys.EngineEvents() {
		if ev.Name == name {
			n++
		}
	}
	return n
}

func TestWithAdaptiveMutuallyExclusiveWithStaticDegree(t *testing.T) {
	sys, tab := newAdaptiveWorld(t, SSD)
	q := Query{Table: tab, Low: 0, High: 999}
	for _, opts := range [][]QueryOption{
		{WithAdaptive(), WithStaticDegree(4)},
		{WithStaticDegree(4), WithAdaptive()},
	} {
		if _, err := sys.Execute(q, opts...); !errors.Is(err, ErrInvalidQuery) {
			t.Fatalf("Execute with contradictory tuning options: err = %v, want ErrInvalidQuery", err)
		}
		if _, err := sys.Submit(q, opts...); !errors.Is(err, ErrInvalidQuery) {
			t.Fatalf("Submit with contradictory tuning options: err = %v, want ErrInvalidQuery", err)
		}
	}
	// The pair is fine separately.
	if _, err := sys.Execute(q, WithStaticDegree(4)); err != nil {
		t.Fatalf("WithStaticDegree alone: %v", err)
	}
	if _, err := sys.Execute(q, WithAdaptive()); err != nil {
		t.Fatalf("WithAdaptive alone: %v", err)
	}
}

// An adaptive execution must return the same answer as the static plan and
// record its seeding decision.
func TestAdaptiveMatchesStaticAnswer(t *testing.T) {
	static, tabS := newAdaptiveWorld(t, SSD)
	adaptive, tabA := newAdaptiveWorld(t, SSD)
	for _, r := range []struct{ lo, hi int64 }{
		{0, 999},    // selective: index scan
		{0, 150000}, // wide: full scan
	} {
		qs := Query{Table: tabS, Low: r.lo, High: r.hi}
		qa := Query{Table: tabA, Low: r.lo, High: r.hi}
		want, err := static.Execute(qs, Cold())
		if err != nil {
			t.Fatal(err)
		}
		got, err := adaptive.Execute(qa, Cold(), WithAdaptive())
		if err != nil {
			t.Fatal(err)
		}
		if got.Value != want.Value || got.Rows != want.Rows || got.Found != want.Found {
			t.Fatalf("range [%d,%d]: adaptive (%d,%d,%v) != static (%d,%d,%v)",
				r.lo, r.hi, got.Value, got.Rows, got.Found, want.Value, want.Rows, want.Found)
		}
	}
	if n := eventCount(adaptive, "adapt.seed"); n != 2 {
		t.Fatalf("adapt.seed events = %d, want one per adaptive query (2)", n)
	}
	if n := eventCount(static, "adapt.seed"); n != 0 {
		t.Fatalf("static system emitted %d adapt.seed events, want 0", n)
	}
}

// An adaptive query starts at its plan's degree — on the HDD a narrow range
// the planner prices as PIS32 seeds at 32 — and everything it moves by is
// priced from the installed model alone, so a system that loaded its model
// runs it exactly as the system that calibrated it.
func TestAdaptiveStartsAtItsPlan(t *testing.T) {
	calibrated, tabC := newAdaptiveWorld(t, HDD)
	loaded, tabL := newAdaptiveWorld(t, HDD)
	var buf bytes.Buffer
	if err := loaded.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	if err := loaded.LoadModel(&buf); err != nil {
		t.Fatal(err)
	}
	q := Query{Table: tabC, Low: 0, High: 39}
	plan, err := calibrated.Plan(q, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Method != IndexScan || plan.Degree != 32 {
		t.Fatalf("plan %v, want the PIS32 this check is about", plan)
	}
	want, err := calibrated.Execute(q, Cold(), WithAdaptive())
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range calibrated.EngineEvents() {
		if ev.Name == "adapt.seed" && ev.A != 32 {
			t.Errorf("adapt.seed at degree %d, want the plan's 32", ev.A)
		}
	}
	q.Table = tabL
	got, err := loaded.Execute(q, Cold(), WithAdaptive())
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("loaded model ran %+v, calibrated ran %+v", got, want)
	}
}

// A user's QueueBudget bounds the controller as it bounds the plan: no seed
// and no growth names a degree above it, standalone or in a session.
func TestAdaptiveRespectsQueueBudget(t *testing.T) {
	for _, dev := range []DeviceKind{SSD, HDD} {
		sys, tab := newAdaptiveWorld(t, dev)
		opts := []QueryOption{WithAdaptive(), WithPlanOptions(PlanOptions{QueueBudget: 2}), Cold()}
		for _, hi := range []int64{39, 3999} {
			if _, err := sys.Execute(Query{Table: tab, Low: 0, High: hi}, opts...); err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Submit(Query{Table: tab, Low: 0, High: hi}, opts...); err != nil {
				t.Fatal(err)
			}
			if err := sys.Drain(); err != nil {
				t.Fatal(err)
			}
		}
		seeds := 0
		for _, ev := range sys.EngineEvents() {
			if ev.Name == "adapt.seed" {
				seeds++
			}
			if (ev.Name == "adapt.seed" || ev.Name == "adapt.grow") && ev.A > 2 {
				t.Errorf("%v: %s names degree %d over the budget of 2", dev, ev.Name, ev.A)
			}
		}
		if seeds != 4 {
			t.Errorf("%v: %d adapt.seed events, want one per query (4)", dev, seeds)
		}
	}
}

// TestAdaptiveTracksBestStatic: on every (device, skew, selectivity) cell
// the feedback controller, which starts at the plan's degree and moves only
// on a priced gain, finishes within 10 % of whichever static degree wins
// the cell.
func TestAdaptiveTracksBestStatic(t *testing.T) {
	const rows, points = 2048 * 33, 5
	// runtimes sweeps the selectivities cold on a fresh system: adaptively
	// for degree 0, pinned to the degree otherwise.
	runtimes := func(dev DeviceKind, zipf float64, degree int) (out [points]time.Duration) {
		sys := New(Config{Device: dev, PoolPages: 256})
		data := WithSyntheticData()
		if zipf > 0 {
			data = WithZipfData(zipf)
		}
		tab, err := sys.CreateTable("grid", rows, 33, data)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Calibrate(CalibrationOptions{MaxReads: 640}); err != nil {
			t.Fatal(err)
		}
		tuning := WithStaticDegree(degree)
		if degree == 0 {
			tuning = WithAdaptive()
		}
		for i := range out {
			sel := 0.002 * math.Pow(300, float64(i)/(points-1)) // 0.2 % … 60 %
			res, err := sys.Execute(Query{Table: tab, Low: 0, High: int64(sel*rows) - 1},
				Cold(), tuning)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = res.Runtime
		}
		return out
	}
	for _, dev := range []DeviceKind{SSD, HDD} {
		for _, zipf := range []float64{0, 1.3} {
			adaptive := runtimes(dev, zipf, 0)
			best := runtimes(dev, zipf, 1)
			for _, degree := range []int{2, 4, 8, 16, 32} {
				for i, rt := range runtimes(dev, zipf, degree) {
					best[i] = min(best[i], rt)
				}
			}
			for i := range adaptive {
				if float64(adaptive[i]) > 1.10*float64(best[i]) {
					t.Errorf("%v zipf=%v point %d: adaptive %v is more than 10%% over the best static %v",
						dev, zipf, i, adaptive[i], best[i])
				}
			}
		}
	}
}

// A query planned under a small fair share must grow mid-flight through its
// broker lease once the queries ahead of it free their credits, while its
// live Progress stays monotone and correctly attributed.
func TestAdaptiveGrowRetuneProgress(t *testing.T) {
	sys, tab := newAdaptiveWorld(t, SSD)
	// Seven lookups submitted first leave the range an eighth of the supply
	// to plan under.
	for i := int64(0); i < 7; i++ {
		if _, err := sys.Submit(Query{Table: tab, Low: 100000 + 997*i, High: 100000 + 997*i}); err != nil {
			t.Fatal(err)
		}
	}
	sub, err := sys.Submit(Query{Table: tab, Low: 0, High: 3999}, WithAdaptive(), Cold())
	if err != nil {
		t.Fatal(err)
	}
	var samples []QueryProgress
	sys.env.Go("progress-poll", func(p *sim.Proc) {
		for !sub.Done() {
			p.Sleep(100 * sim.Microsecond)
			samples = append(samples, sub.Progress())
		}
	})
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	if n := eventCount(sys, "adapt.grow"); n == 0 {
		t.Fatal("adaptive query planned under a small share never grew")
	}
	if n := eventCount(sys, "lease.grow"); n == 0 {
		t.Fatal("adaptive growth leased no credits")
	}
	res, err := sub.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows == 0 {
		t.Fatal("query matched no rows")
	}
	// Progress must be monotone across the retunes, live mid-flight, and
	// complete at the end.
	var last int64
	sawLive := false
	for _, s := range samples {
		if s.PagesProcessed < last {
			t.Fatalf("progress went backwards: %d after %d", s.PagesProcessed, last)
		}
		last = s.PagesProcessed
		if s.Started && !s.Done && s.PagesProcessed > 0 {
			sawLive = true
		}
	}
	if !sawLive {
		t.Fatal("no live mid-flight progress sample despite retunes")
	}
	fin := sub.Progress()
	if !fin.Done || fin.PagesProcessed == 0 || fin.EstimatedPages == 0 {
		t.Fatalf("final progress %+v, want done with pages and an estimate", fin)
	}
}

// A plan forced far above the band's beneficial depth must shed workers:
// the controller shrinks toward the broker's calibrated supply. The HDD's
// measured curve keeps gaining down to depth 32, so the test installs the
// same model flattened below depth 4: a supply the forced degree 32
// overshoots eightfold.
func TestAdaptiveShrinkRetune(t *testing.T) {
	sys, tab := newAdaptiveWorld(t, HDD)
	m, err := sys.Model()
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]float64, len(m.Depths()))
	for i, d := range m.Depths() {
		for _, band := range m.Bands() {
			rows[i] = append(rows[i], m.PageCost(band, min(d, 4)))
		}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(cost.NewQDTT(m.Bands(), m.Depths(), rows)); err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadModel(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := sys.sharedBroker()
	if err != nil {
		t.Fatal(err)
	}
	if b.Total() > 4 {
		t.Fatalf("HDD beneficial depth %d on a curve flat below depth 4", b.Total())
	}
	q := Query{Table: tab, Low: 0, High: 3999}
	plan, err := sys.Plan(q, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	plan.Degree = 32
	res, err := sys.ExecutePlan(q, plan, Cold(), WithAdaptive())
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows == 0 {
		t.Fatal("query matched no rows")
	}
	if n := eventCount(sys, "adapt.shrink"); n == 0 {
		t.Fatal("adaptive query forced to degree 32 never shrank")
	}
}

// Adaptive queries under a concurrent batch keep SLO attribution whole:
// every query lands in its shape's group with wait and execution split.
func TestAdaptiveSLOAttribution(t *testing.T) {
	sys, tab := newAdaptiveWorld(t, SSD)
	queries := []Query{
		{Table: tab, Low: 0, High: 999},
		{Table: tab, Low: 0, High: 999},
		{Table: tab, Low: 50000, High: 59999},
	}
	res, err := sys.ExecuteConcurrent(queries, Cold(), WithAdaptive())
	if err != nil {
		t.Fatal(err)
	}
	rep := res.SLOReport(queries)
	if rep.Queries != 3 {
		t.Fatalf("report covers %d queries, want 3", rep.Queries)
	}
	n := 0
	for _, sh := range rep.Shapes {
		n += sh.Queries
		if sh.P50 <= 0 {
			t.Fatalf("shape %q has non-positive P50", sh.Shape)
		}
		if sh.MeanExec <= 0 {
			t.Fatalf("shape %q lost its execution time", sh.Shape)
		}
	}
	if n != 3 {
		t.Fatalf("shape groups cover %d queries, want 3", n)
	}
	if len(rep.Shapes) != 2 {
		t.Fatalf("distinct shapes = %d, want 2", len(rep.Shapes))
	}
}

// Speculative prefetch must cancel cleanly when the scan dies mid-flight:
// injected faults abort the query, FinishScan drops the outstanding
// speculation, and the pin ledger ends at zero.
func TestAdaptiveSpecCancelZeroPinsUnderFaults(t *testing.T) {
	sys, tab := newAdaptiveWorld(t, SSD)
	sys.InjectFaults(FaultSchedule{Windows: []FaultWindow{{
		From:      2 * time.Millisecond, // let some leaves (and speculation) through first
		ErrorRate: 1.0,
	}}})
	// Leaf-to-leaf speculation belongs to the index scan: the range is
	// narrowed until that is what the optimizer picks, wherever its model
	// puts the crossing today.
	q := Query{Table: tab, Low: 0, High: 3999}
	var plan Plan
	for {
		var err error
		if plan, err = sys.Plan(q, PlanOptions{}); err != nil {
			t.Fatal(err)
		}
		if plan.Method == IndexScan {
			break
		}
		q.High /= 2
	}
	// Run serially, the scan leaves the device the idle depth speculation
	// needs.
	plan.Degree = 1
	if _, err := sys.ExecutePlan(q, plan, WithAdaptive(), WithRetry(RetryPolicy{MaxAttempts: 2})); !errors.Is(err, ErrDeviceFault) {
		t.Fatalf("err = %v, want ErrDeviceFault", err)
	}
	if n := sys.coord().Pool.Pinned(); n != 0 {
		t.Fatalf("pool pins = %d after aborted adaptive query, want 0", n)
	}
	if n := eventCount(sys, "adapt.spec.issue"); n == 0 {
		t.Fatal("no speculation issued before the fault window")
	}
	if n := eventCount(sys, "adapt.spec.cancel"); n == 0 {
		t.Fatal("aborted scan did not cancel its outstanding speculation")
	}
}
