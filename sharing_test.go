package pioqo

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// submitScans submits n full-range scans and returns their submissions.
func submitScans(t *testing.T, sys *System, tab *Table, n int, opts ...QueryOption) []*Submission {
	t.Helper()
	subs := make([]*Submission, n)
	for i := range subs {
		sub, err := sys.Submit(Query{Table: tab, Low: 0, High: tab.Rows() - 1}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = sub
	}
	return subs
}

// drainContendedScans submits and drains enough full scans to get well past
// the credit supply, which it also returns. The attach path wins once
// contention squeezes each query's fair share to a single queue-depth
// credit — below that, a parallel private scan is still cheaper for the
// individual query.
func drainContendedScans(t *testing.T, sys *System, tab *Table, opts ...QueryOption) ([]*Submission, int) {
	t.Helper()
	m, err := sys.Model()
	if err != nil {
		t.Fatal(err)
	}
	total := m.MaxBeneficialDepth(sys.DevicePages(), 0.05)
	n := 2 * total
	if n < 16 {
		n = 16
	}
	subs := submitScans(t, sys, tab, n, opts...)
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	return subs, total
}

func TestSessionSharesConcurrentScans(t *testing.T) {
	sys, tab := newCalibrated(t, SSD, 40000, 4)
	want, err := sys.Execute(Query{Table: tab, Low: 0, High: tab.Rows() - 1})
	if err != nil {
		t.Fatal(err)
	}
	subs, total := drainContendedScans(t, sys, tab)
	sharedSeen := 0
	for i, sub := range subs {
		res, err := sub.Result()
		if err != nil {
			t.Fatalf("scan %d: %v", i, err)
		}
		if res.Value != want.Value || res.Rows != want.Rows {
			t.Errorf("scan %d: got (%d, %d rows), want (%d, %d rows)",
				i, res.Value, res.Rows, want.Value, want.Rows)
		}
		if sub.Admission().Shared {
			sharedSeen++
			if !res.Plan.Shared {
				t.Errorf("scan %d admitted shared but its plan is %v", i, res.Plan)
			}
			if sub.Admission().Budget != 0 || sub.Admission().Wait != 0 {
				t.Errorf("scan %d: shared admission holds budget=%d wait=%v, want 0/0",
					i, sub.Admission().Budget, sub.Admission().Wait)
			}
			// The Progress contract for attached scans: pages delivered to
			// this consumer, one full lap exactly.
			if got := sub.Progress().PagesProcessed; got != tab.Pages() {
				t.Errorf("scan %d: progress %d pages, want exactly %d", i, got, tab.Pages())
			}
		}
	}
	// Scans submitted once the admission queue already held `total`
	// queries planned under a one-credit fair share — the regime where the
	// shared lap is never worse than the serial private scan it ties.
	if want := len(subs) - total - 1; sharedSeen < want {
		t.Errorf("%d of %d concurrent scans shared the circulation, want ≥ %d",
			sharedSeen, len(subs), want)
	}
}

// TestSharedScansLeaveTheHotSetResident runs serving_mix's shape small: on
// an HDD, one batch of point lookups on a hot 1 % key stripe of three
// wide-row tables, plus a few full scans of them, which ride the tables'
// circulating scans. Each table is twice the pool, so every lap pushes
// 1 536 pages through it. A scan's pages leave the pool first, so the
// lookups keep finding their pages: plain LRU, which sends every idle page
// to the hot end, missed 655 times on this batch when its lookups ran one
// at a time; the test holds the device reads a fifth below that (plain LRU
// reads 596 times with the lookups admitted together, this pool about 400).
// It counts reads, not pool misses: a fetch that joins a load already in
// flight counts as a miss but issues no read, and with dozens of lookups
// admitted at once on a hot stripe nearly a third of the misses are such
// joins.
// Every pin and every rider is back at the drain.
func TestSharedScansLeaveTheHotSetResident(t *testing.T) {
	const (
		rpp, pages, queries = 4, 1536, 300
		lruMisses           = 655
	)
	sys := New(Config{Device: HDD, PoolPages: 768, Seed: 1})
	rows := int64(pages * rpp)
	var tabs []*Table
	for i := 0; i < 3; i++ {
		tab, err := sys.CreateTable(fmt.Sprintf("hot%d", i), rows, rpp, WithSyntheticData(), WithTableSeed(int64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		tabs = append(tabs, tab)
	}
	if _, err := sys.Calibrate(CalibrationOptions{MaxReads: 640}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	scans := queries / 20
	var qs []Query
	for i := 0; i < queries-scans; i++ {
		k := rng.Int63n(rows / 100)
		qs = append(qs, Query{Table: tabs[i%3], Low: k, High: k})
	}
	for i := 0; i < scans; i++ {
		qs = append(qs, Query{Table: tabs[i%3], Low: 0, High: rows - 1})
	}

	res, err := sys.ExecuteConcurrent(qs, Cold())
	if err != nil {
		t.Fatal(err)
	}
	shared := 0
	for i, r := range res.Results {
		if q := qs[i]; r.Rows != q.High-q.Low+1 {
			t.Errorf("query %d [%d,%d] matched %d rows", i, q.Low, q.High, r.Rows)
		}
		if res.Admissions[i].Shared {
			shared++
		}
	}
	if shared == 0 {
		t.Error("no scan rode a circulating scan")
	}
	// ExecuteConcurrent meters the coordinator's device over the batch alone.
	n := sys.coord()
	if reads := n.Dev.Metrics().Requests; reads > lruMisses*4/5 {
		t.Errorf("device read %d times, want at most %d (plain LRU missed %d times)", reads, lruMisses*4/5, lruMisses)
	}
	if pins, live := n.Pool.Pinned(), n.Shares.Live(); pins != 0 || live != 0 {
		t.Errorf("%d pins and %d riders left at the drain, want 0 and 0", pins, live)
	}
}

// TestSharedScanProgressExactOnMidLapAttach aborts a shared scan partway
// through its lap, leaving the circulating producer parked mid-table; a
// fresh scan then attaches at that interior position and its Progress
// counter must still end at exactly the table's page count.
func TestSharedScanProgressExactOnMidLapAttach(t *testing.T) {
	sys, tab := newCalibrated(t, SSD, 40000, 4)
	// Force the attach path for a sole query: price it as one of 8 riders
	// under a serial queue budget, where the shared lap always wins.
	force := WithPlanOptions(PlanOptions{ShareParties: 8, QueueBudget: 1})

	aborted, err := sys.Submit(Query{Table: tab, Low: 0, High: tab.Rows() - 1},
		force, WithTimeout(2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Drain(); err == nil {
		t.Fatal("2ms deadline on a full scan did not abort")
	} else if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("abort error = %v, want deadline exceeded", err)
	}
	if !aborted.Admission().Shared {
		t.Fatal("forced plan was not admitted shared")
	}
	got := aborted.Progress().PagesProcessed
	if got <= 0 || got >= tab.Pages() {
		t.Fatalf("aborted scan processed %d of %d pages; need a mid-lap abort for this test to bite",
			got, tab.Pages())
	}

	// The second scan finds the producer mid-table and joins there.
	sub, err := sys.Submit(Query{Table: tab, Low: 0, High: tab.Rows() - 1}, force)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	if !sub.Admission().Shared {
		t.Fatal("resumed scan was not admitted shared")
	}
	if got := sub.Progress().PagesProcessed; got != tab.Pages() {
		t.Errorf("mid-lap attached scan progressed %d pages, want exactly %d", got, tab.Pages())
	}
	if p := sub.Progress(); !p.Done || p.Remaining != 0 {
		t.Errorf("final progress = %+v, want done with nothing remaining", p)
	}
}

// TestNoScanSharingKnobs runs TestSessionSharesConcurrentScans' contention
// with every scan kept private through the unexported queryOptions.noShare
// (the reference arm no exported option reaches): none attaches, each still
// answers correctly.
func TestNoScanSharingKnobs(t *testing.T) {
	sys, tab := newCalibrated(t, SSD, 40000, 4)
	want, err := sys.Execute(Query{Table: tab, Low: 0, High: tab.Rows() - 1})
	if err != nil {
		t.Fatal(err)
	}
	private := func(o *queryOptions) { o.noShare = true }
	subs, _ := drainContendedScans(t, sys, tab, private)
	for i, sub := range subs {
		res, err := sub.Result()
		if err != nil {
			t.Fatalf("scan %d: %v", i, err)
		}
		if sub.Admission().Shared || res.Plan.Shared {
			t.Errorf("scan %d shared despite noShare: %+v, plan %v", i, sub.Admission(), res.Plan)
		}
		if res.Value != want.Value || res.Rows != want.Rows {
			t.Errorf("scan %d: got (%d, %d rows), want (%d, %d rows)",
				i, res.Value, res.Rows, want.Value, want.Rows)
		}
	}
}
