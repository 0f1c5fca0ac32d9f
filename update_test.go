package pioqo

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"pioqo/internal/disk"
)

func TestUpdateModifiesValuesDurably(t *testing.T) {
	sys, tab := newCalibrated(t, SSD, 20000, 33)
	q := Query{Table: tab, Low: 100, High: 299, Agg: Sum}

	before, err := sys.Run(context.Background(), q, Cold())
	if err != nil {
		t.Fatal(err)
	}
	up, err := sys.Run(context.Background(), UpdateQuery{Table: tab, Low: 100, High: 299, Delta: 7}, Cold())
	if err != nil {
		t.Fatal(err)
	}
	if up.Rows != before.Rows {
		t.Errorf("updated %d rows, scan matched %d", up.Rows, before.Rows)
	}
	if up.PagesWritten == 0 {
		t.Error("no dirty pages written back")
	}
	if up.Runtime <= 0 {
		t.Error("non-positive update runtime")
	}

	after, err := sys.Run(context.Background(), q, Cold())
	if err != nil {
		t.Fatal(err)
	}
	if want := before.Value + 7*before.Rows; after.Value != want {
		t.Errorf("SUM after update = %d, want %d", after.Value, want)
	}
}

func TestUpdateDisjointRangeLeavesOthersAlone(t *testing.T) {
	sys, tab := newCalibrated(t, SSD, 10000, 33)
	probe := Query{Table: tab, Low: 5000, High: 5999, Agg: Sum}
	before, err := sys.Run(context.Background(), probe, Cold())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(context.Background(), UpdateQuery{Table: tab, Low: 0, High: 999, Delta: 100}); err != nil {
		t.Fatal(err)
	}
	after, err := sys.Run(context.Background(), probe, Cold())
	if err != nil {
		t.Fatal(err)
	}
	if after.Value != before.Value {
		t.Errorf("untouched range changed: %d -> %d", before.Value, after.Value)
	}
}

func TestUpdateRejectsSyntheticTables(t *testing.T) {
	sys := New(Config{Device: SSD, PoolPages: 512})
	tab, err := sys.CreateTable("t", 10000, 33, WithSyntheticData())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Calibrate(CalibrationOptions{MaxReads: 400}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(context.Background(), UpdateQuery{Table: tab, Low: 0, High: 9, Delta: 1}); !errors.Is(err, ErrInvalidQuery) {
		t.Errorf("update of a synthetic table: err = %v, want ErrInvalidQuery", err)
	}
	if _, err := sys.Run(context.Background(), UpdateQuery{Delta: 1}); !errors.Is(err, ErrInvalidQuery) {
		t.Errorf("update without a table: err = %v, want ErrInvalidQuery", err)
	}
}

func TestUpdateWriteBackOnEviction(t *testing.T) {
	// A pool far smaller than the update's footprint forces write-backs
	// during the scan, not just at the checkpoint.
	sys := New(Config{Device: SSD, PoolPages: 64})
	tab, err := sys.CreateTable("t", 30000, 33)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Calibrate(CalibrationOptions{MaxReads: 400}); err != nil {
		t.Fatal(err)
	}
	up, err := sys.Run(context.Background(), UpdateQuery{Table: tab, Low: 0, High: 29999, Delta: 1}, Cold())
	if err != nil {
		t.Fatal(err)
	}
	if up.PagesWritten < tab.Pages()/2 {
		t.Errorf("only %d pages written for a full-table update of %d pages",
			up.PagesWritten, tab.Pages())
	}
}

// TestWideUpdateWritesWholeBlocks: a 30 % update of a 12 288-page table
// dirties every page, and the pool writes them back as whole
// disk.BlockPages-aligned runs — 192 writes, one per block the full scan
// read, not 12 288 single-page ones — while PagesWritten still counts pages.
func TestWideUpdateWritesWholeBlocks(t *testing.T) {
	const pages, rpp = 12288, 33
	sys, tab := newCalibrated(t, SSD, pages*rpp, rpp)
	before := sys.MetricsSnapshot()
	up, err := sys.Run(context.Background(), UpdateQuery{Table: tab, Low: 0, High: pages * rpp * 3 / 10, Delta: 1}, Cold())
	if err != nil {
		t.Fatal(err)
	}
	if up.PagesWritten != pages {
		t.Fatalf("%d pages written, want every one of the %d", up.PagesWritten, pages)
	}
	blocks := int64(pages / disk.BlockPages)
	if got := sys.MetricsSince(before).Counter("device.requests"); got != 2*blocks {
		t.Errorf("%d device requests, want %d block reads and %d block writes (plan %v)", got, blocks, blocks, up.Plan)
	}
}

// TestAbortedUpdateAppliesAPrefix pins what an abort leaves behind: the
// rows the scan reached before the deadline are changed and checkpointed,
// the rest are untouched, and the error comes with the count.
func TestAbortedUpdateAppliesAPrefix(t *testing.T) {
	sys, tab := newCalibrated(t, SSD, 20000, 33)
	q := Query{Table: tab, Low: 0, High: 9999, Agg: Sum}
	up := UpdateQuery{Table: tab, Low: 0, High: 9999, Delta: 7}

	whole, err := sys.Run(context.Background(), up, Cold())
	if err != nil {
		t.Fatal(err)
	}
	before, err := sys.Run(context.Background(), q, Cold())
	if err != nil {
		t.Fatal(err)
	}
	// The closing checkpoint dominates an update's runtime; an eighth of it
	// lands inside the locating scan.
	part, err := sys.Run(context.Background(), up, Cold(), WithTimeout(whole.Runtime/8))
	var qe *QueryError
	if !errors.As(err, &qe) || !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want a *QueryError wrapping ErrDeadlineExceeded", err)
	}
	if part.Rows <= 0 || part.Rows >= whole.Rows {
		t.Fatalf("aborted update (runtime %v) changed %d of %d rows; the deadline is meant to land mid-scan", whole.Runtime, part.Rows, whole.Rows)
	}
	after, err := sys.Run(context.Background(), q, Cold())
	if err != nil {
		t.Fatal(err)
	}
	if want := before.Value + 7*part.Rows; after.Value != want {
		t.Errorf("SUM after the aborted update = %d, want %d (%d rows changed)", after.Value, want, part.Rows)
	}
	assertNoLeaks(t, sys)
}

// TestUpdateCheckpointOrderIsDeterministic pins "same seed ⇒ same bytes" for
// the write path. The closing checkpoint used to submit its writes in Go
// map order, and on the seek-dependent HDD model the order is part of the
// answer: the same update on the same seed took a different time every run.
// Five runs in one process, since map order is drawn afresh at every range.
func TestUpdateCheckpointOrderIsDeterministic(t *testing.T) {
	t.Parallel()
	run := func() (Result, []byte) {
		sys := New(Config{Device: HDD, PoolPages: 1024, Seed: 1})
		tab, err := sys.CreateTable("t", 135168, 33)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Calibrate(CalibrationOptions{MaxReads: 640}); err != nil {
			t.Fatal(err)
		}
		sys.EnableEventLog(1 << 16)
		up, err := sys.Run(context.Background(), UpdateQuery{Table: tab, Low: 0, High: 400, Delta: 1}, Cold())
		if err != nil {
			t.Fatal(err)
		}
		var log bytes.Buffer
		if err := sys.WriteEventLog(&log); err != nil {
			t.Fatal(err)
		}
		return up, log.Bytes()
	}
	a, alog := run()
	if a.PagesWritten < 100 {
		t.Fatalf("checkpoint wrote %d pages; the test needs a few hundred seeks to order", a.PagesWritten)
	}
	for range 4 {
		b, blog := run()
		if a.Runtime != b.Runtime || a.PagesWritten != b.PagesWritten || a.Rows != b.Rows {
			t.Errorf("same seed, same update: runtime %v vs %v, %d vs %d pages written, %d vs %d rows",
				a.Runtime, b.Runtime, a.PagesWritten, b.PagesWritten, a.Rows, b.Rows)
		}
		if !bytes.Equal(alog, blog) {
			t.Errorf("same seed, same update: event logs differ (%d vs %d bytes)", len(alog), len(blog))
		}
	}
}
