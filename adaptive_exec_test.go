package pioqo

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"testing"
	"time"

	"pioqo/internal/adapt"
	"pioqo/internal/calibrate"
	"pioqo/internal/cost"
	"pioqo/internal/sim"
)

// newAdaptiveWorld builds a calibrated system with the event log on.
func newAdaptiveWorld(t *testing.T, cfg Config) (*System, *Table) {
	t.Helper()
	if cfg.PoolPages == 0 {
		cfg.PoolPages = 4096
	}
	cfg.EventLog = 4096
	sys := New(cfg)
	tab, err := sys.CreateTable("t", 200000, 33)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Calibrate(CalibrationOptions{MaxReads: 800, StopThreshold: -1}); err != nil {
		t.Fatal(err)
	}
	return sys, tab
}

// misseedDOP installs a hand-fit DOP model so adaptive runs start at a
// known-wrong degree and the feedback controller has distance to cover.
func misseedDOP(sys *System, degree int) {
	pts := []calibrate.Point{{Band: 1 << 30, Depth: 1, MicrosPerPage: 100}}
	cost := 100.0
	for d := 2; d <= 32; d *= 2 {
		if d <= degree {
			cost /= 2 // strong gains up to the target degree
		} else {
			cost *= 0.99 // below the marginal-gain threshold: stop here
		}
		pts = append(pts, calibrate.Point{Band: 1 << 30, Depth: d, MicrosPerPage: cost})
	}
	sys.dop = adapt.Fit(pts)
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
	sys, tab := newAdaptiveWorld(t, Config{Device: SSD})
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
	static, tabS := newAdaptiveWorld(t, Config{Device: SSD})
	adaptive, tabA := newAdaptiveWorld(t, Config{Device: SSD, Adaptive: true})
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
		got, err := adaptive.Execute(qa, Cold())
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

// A query misseeded far below the useful degree must grow mid-flight —
// through the broker lease on the session path — while its live Progress
// stays monotone and correctly attributed.
// TestAdaptiveTracksBestStatic: on every (device, skew, selectivity) cell
// the feedback controller, which never sees the static degree grid — it
// seeds from the calibration-fit DOP model and retunes from live signals —
// finishes within 10 % of whichever static degree wins the cell.
func TestAdaptiveTracksBestStatic(t *testing.T) {
	const rows, points = 2048 * 33, 5
	// runtimes sweeps the selectivities cold on a fresh system: adaptively
	// for degree 0, pinned to the degree otherwise.
	runtimes := func(dev DeviceKind, zipf float64, degree int) (out [points]time.Duration) {
		sys := New(Config{Device: dev, PoolPages: 256, Adaptive: degree == 0})
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
		for i := range out {
			sel := 0.002 * math.Pow(300, float64(i)/(points-1)) // 0.2 % … 60 %
			res, err := sys.Execute(Query{Table: tab, Low: 0, High: int64(sel*rows) - 1},
				Cold(), WithStaticDegree(degree))
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

func TestAdaptiveGrowRetuneProgress(t *testing.T) {
	sys, tab := newAdaptiveWorld(t, Config{Device: SSD})
	misseedDOP(sys, 1)
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
		t.Fatal("misseeded-low adaptive query never grew")
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

// A query misseeded far above the band's beneficial depth must shed
// workers: the controller shrinks toward the broker's calibrated supply.
// The HDD's measured curve keeps gaining down to depth 32, so the test
// installs the same model flattened below depth 4: a supply the misseed
// overshoots eightfold.
func TestAdaptiveShrinkRetune(t *testing.T) {
	sys, tab := newAdaptiveWorld(t, Config{Device: HDD, Adaptive: true})
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
	misseedDOP(sys, 32) // after LoadModel, which drops the fitted DOP model
	b, err := sys.sharedBroker()
	if err != nil {
		t.Fatal(err)
	}
	if b.Total() > 4 {
		t.Fatalf("HDD beneficial depth %d on a curve flat below depth 4", b.Total())
	}
	res, err := sys.Execute(Query{Table: tab, Low: 0, High: 3999}, Cold())
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows == 0 {
		t.Fatal("query matched no rows")
	}
	if n := eventCount(sys, "adapt.shrink"); n == 0 {
		t.Fatal("misseeded-high adaptive query never shrank")
	}
}

// Adaptive queries under a concurrent batch keep SLO attribution whole:
// every query lands in its shape's group with wait and execution split.
func TestAdaptiveSLOAttribution(t *testing.T) {
	sys, tab := newAdaptiveWorld(t, Config{Device: SSD, Adaptive: true})
	queries := []Query{
		{Table: tab, Low: 0, High: 999},
		{Table: tab, Low: 0, High: 999},
		{Table: tab, Low: 50000, High: 59999},
	}
	res, err := sys.ExecuteConcurrent(queries, Cold())
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
	sys, tab := newAdaptiveWorld(t, Config{Device: SSD, Adaptive: true})
	misseedDOP(sys, 1)
	sys.InjectFaults(FaultSchedule{Windows: []FaultWindow{{
		From:      2 * time.Millisecond, // let some leaves (and speculation) through first
		ErrorRate: 1.0,
	}}})
	// Leaf-to-leaf speculation belongs to the index scan: the range is
	// narrowed until that is what the optimizer picks, wherever its model
	// puts the crossing today.
	q := Query{Table: tab, Low: 0, High: 3999}
	for {
		plan, err := sys.Plan(q, PlanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if plan.Method == IndexScan {
			break
		}
		q.High /= 2
	}
	sub, err := sys.Submit(q, WithRetry(RetryPolicy{MaxAttempts: 2}))
	if err != nil {
		t.Fatal(err)
	}
	err = sys.Drain() // Drain panics itself on credit or pool-reservation leaks
	if !errors.Is(err, ErrDeviceFault) {
		t.Fatalf("drain err = %v, want ErrDeviceFault", err)
	}
	if _, err := sub.Result(); !errors.Is(err, ErrDeviceFault) {
		t.Fatalf("result err = %v, want ErrDeviceFault", err)
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
