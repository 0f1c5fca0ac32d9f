package pioqo

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"pioqo/internal/obs"
	"pioqo/internal/sim"
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
	total := m.MaxBeneficialDepth(sys.DevicePages())
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

// hotStripeBatch builds serving_mix's shape small: an HDD with a 768-frame
// pool, three wide-row tables of twice its size, and 285 point lookups on
// the tables' hot 1 % key stripe followed by 15 full scans, round-robin
// over the tables.
func hotStripeBatch(t *testing.T) (*System, []Query) {
	t.Helper()
	const rpp, pages, queries = 4, 1536, 300
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
	return sys, qs
}

// TestSharedScansLeaveTheHotSetResident runs hotStripeBatch's queries as one
// batch: point lookups on a hot 1 % key stripe of three wide-row
// tables, plus a few full scans of them, which ride the tables' circulating
// scans. Each table is twice the pool, so every lap pushes
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
	const lruMisses = 655
	sys, qs := hotStripeBatch(t)
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

// TestSharedProducersLeaseTheirDepth runs hotStripeBatch's queries with
// a probe sampling the broker and the pool beside them. A circulating
// producer leases its depth like a query, in FIFO turn behind the lookups,
// and reads no deeper than its grant, so its block reads are counted in the
// credits on loan: those stay within the broker's supply at every sample,
// and no block read lands before the first producer's grant. Lookups read
// single pages, so the pool's block reads are the producers'.
func TestSharedProducersLeaseTheirDepth(t *testing.T) {
	sys, qs := hotStripeBatch(t)
	sys.EnableEventLog(1 << 16)
	b, err := sys.sharedBroker()
	if err != nil {
		t.Fatal(err)
	}
	pool := sys.coord().Pool
	samples, worstLoan := 0, 0
	firstRead := sim.Time(-1) // the first sample that saw a block read
	sys.env.Go("probe", func(p *sim.Proc) {
		for samples == 0 || b.Active()+b.Waiting() > 0 {
			samples++
			worstLoan = max(worstLoan, b.InUse())
			if firstRead < 0 && pool.Stats.PrefetchReads > 0 {
				firstRead = p.Now()
			}
			p.Sleep(10 * sim.Microsecond)
		}
	})
	res, err := sys.ExecuteConcurrent(qs, Cold())
	if err != nil {
		t.Fatal(err)
	}
	shared := 0
	for _, a := range res.Admissions {
		if a.Shared {
			shared++
		}
	}
	if shared == 0 || samples < 1000 || firstRead < 0 {
		t.Fatalf("%d riders, %d samples, first block read at %v: the probe watched no shared batch",
			shared, samples, firstRead)
	}
	// The supply is the calibrated total plus at most a quarter of it as
	// slack, which the broker extends while the device runs shallower than
	// the credits on loan.
	if supply := b.Total() + b.Total()/4; worstLoan > supply {
		t.Errorf("%d credits on loan at worst, supply %d", worstLoan, supply)
	}
	// Producers enqueue without a query id; queries always carry one.
	granted := sim.Time(-1)
	for _, e := range sys.reg.Log().Events() {
		if e.Type == obs.EvAdmissionGrant && e.Query == obs.NoQuery {
			granted = e.At
			break
		}
	}
	if granted < 0 || granted > firstRead {
		t.Errorf("first producer grant at %v, first block read seen at %v: a producer read before its grant",
			granted, firstRead)
	}
}

// TestRidersCanceledBeforeTheirProducerIsGranted cancels every rider while
// the producers they attached to still wait in the admission queue behind a
// broker's worth of lookups. A parked rider sees its cancel only at its next
// delivery, so each producer is granted, delivers, finds its riders gone and
// exits, returning its lease: the drain leaves no credit on loan, no pool
// reservation and no rider attached.
func TestRidersCanceledBeforeTheirProducerIsGranted(t *testing.T) {
	sys, qs := hotStripeBatch(t)
	n := sys.coord()
	var riders []*Submission
	for _, q := range qs {
		sub, err := sys.Submit(q)
		if err != nil {
			t.Fatal(err)
		}
		if sub.q.High > sub.q.Low {
			riders = append(riders, sub)
		}
	}
	b := sys.broker
	attached, queued := 0, 0
	sys.env.Go("cancel", func(p *sim.Proc) {
		p.Sleep(sim.Millisecond)
		attached, queued = n.Shares.Live(), b.Waiting()
		if n.Pool.Stats.PrefetchReads != 0 {
			t.Errorf("%d block reads before any producer could be granted", n.Pool.Stats.PrefetchReads)
		}
		for _, sub := range riders {
			sub.Cancel()
		}
	})
	if err := sys.Drain(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("drain returned %v, want the riders' cancel", err)
	}
	if attached != len(riders) || queued == 0 {
		t.Fatalf("at the cancel %d of %d riders were attached and %d leases queued; want all, behind a queue",
			attached, len(riders), queued)
	}
	for _, sub := range riders {
		if !sub.Admission().Shared {
			t.Errorf("scan %v was not admitted shared", sub.q)
		}
	}
	if b.InUse() != 0 || b.PoolInUse() != 0 || n.Shares.Live() != 0 {
		t.Errorf("drain left %d credits, %d pool pages and %d riders, want 0, 0 and 0",
			b.InUse(), b.PoolInUse(), n.Shares.Live())
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
