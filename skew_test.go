package pioqo

import (
	"context"
	"testing"
)

// Zipf-skewed data exercises histogram-based cardinality estimation: a
// fixed-width key range matches wildly different row counts depending on
// where in the domain it sits, and the optimizer must see that.

func newZipfSystem(t *testing.T) (*System, *Table) {
	t.Helper()
	sys := New(Config{Device: SSD, PoolPages: 1024})
	tab, err := sys.CreateTable("z", 100000, 33, WithZipfData(1.3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Calibrate(CalibrationOptions{MaxReads: 640}); err != nil {
		t.Fatal(err)
	}
	return sys, tab
}

func TestZipfValidation(t *testing.T) {
	sys := New(Config{Device: SSD})
	if _, err := sys.CreateTable("bad", 100, 10, WithZipfData(0.9)); err == nil {
		t.Error("zipf exponent <= 1 accepted")
	}
	if _, err := sys.CreateTable("bad2", 100, 10, WithZipfData(1.5), WithSyntheticData()); err == nil {
		t.Error("zipf + synthetic accepted")
	}
}

func TestHistogramDrivenCardinalityEstimates(t *testing.T) {
	sys, tab := newZipfSystem(t)
	// Head range [0, 99]: dense under Zipf. Tail range of the same width:
	// nearly empty. The estimated row counts must differ by orders of
	// magnitude, which a uniform assumption cannot produce.
	headPlan, err := sys.Plan(Query{Table: tab, Low: 0, High: 99}, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tailPlan, err := sys.Plan(Query{Table: tab, Low: 90000, High: 90099}, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if headPlan.EstimatedRows < 20*tailPlan.EstimatedRows {
		t.Errorf("head estimate %.0f vs tail estimate %.0f: histogram not consulted",
			headPlan.EstimatedRows, tailPlan.EstimatedRows)
	}
}

func TestHistogramSteersAccessPathOnSkew(t *testing.T) {
	sys, tab := newZipfSystem(t)
	// The head of the Zipf distribution holds a large fraction of all rows
	// in a tiny key range: a full scan is right there. The sparse tail of
	// the same key width wants the index.
	headPlan, err := sys.Plan(Query{Table: tab, Low: 0, High: 999}, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tailPlan, err := sys.Plan(Query{Table: tab, Low: 50000, High: 50999}, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if headPlan.Method != FullTableScan {
		t.Errorf("head-range plan %v, want full scan (range holds most rows)", headPlan)
	}
	if tailPlan.Method != IndexScan {
		t.Errorf("tail-range plan %v, want index scan (range nearly empty)", tailPlan)
	}

	// And the executed answers stay exact, matching brute-force-free
	// cross-checks between the two access paths.
	q := Query{Table: tab, Low: 0, High: 999}
	viaFTS, err := sys.Run(context.Background(), q, WithPlan(Plan{Method: FullTableScan, Degree: 4}), Cold())
	if err != nil {
		t.Fatal(err)
	}
	viaIS, err := sys.Run(context.Background(), q, WithPlan(Plan{Method: IndexScan, Degree: 4}), Cold())
	if err != nil {
		t.Fatal(err)
	}
	if viaFTS.Value != viaIS.Value || viaFTS.Rows != viaIS.Rows {
		t.Errorf("access paths disagree on skewed data: FTS (%d, %d) vs IS (%d, %d)",
			viaFTS.Value, viaFTS.Rows, viaIS.Value, viaIS.Rows)
	}
	if viaFTS.Rows < 10000 {
		t.Errorf("head range matched %d rows; expected a heavy Zipf head", viaFTS.Rows)
	}
}
