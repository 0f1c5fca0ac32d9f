package pioqo

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"pioqo/internal/sim"
)

// grantsAndDones indexes a drained system's event log by query id: when
// each query was granted (absent: never) and when it finished.
func grantsAndDones(sys *System) (grant, done map[int64]time.Duration) {
	grant, done = map[int64]time.Duration{}, map[int64]time.Duration{}
	for _, e := range sys.EngineEvents() {
		switch e.Name {
		case "admission.grant":
			grant[e.Query] = e.At
		case "query.done":
			done[e.Query] = e.At
		}
	}
	return grant, done
}

// holdQueue submits cold range scans of tab that each lease the device's
// whole credit supply, so they are granted one at a time and everything
// submitted after them queues.
func holdQueue(t *testing.T, ses *Session, tab *Table) []*Submission {
	t.Helper()
	var scans []*Submission
	for _, lo := range []int64{0, 40000, 80000} {
		sub, err := ses.Submit(Query{Table: tab, Low: lo, High: lo + 4999},
			WithPlanOptions(PlanOptions{QueueBudget: ses.sys.broker.Total()}))
		if err != nil {
			t.Fatal(err)
		}
		scans = append(scans, sub)
	}
	return scans
}

// TestResidentLookupSkipsTheQueue: a serial lookup whose pages the pool
// holds reads nothing from the device, so it needs no grant. Submitted
// behind cold range scans that hold the queue, it finishes before the last
// of them is granted, is never granted itself, reports no admission wait and
// returns the answer it returns alone.
func TestResidentLookupSkipsTheQueue(t *testing.T) {
	sys, tab := newCalibrated(t, SSD, 200000, 33)
	lookup := Query{Table: tab, Low: 123456, High: 123456}
	alone, err := sys.Run(context.Background(), lookup)
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableEventLog(1 << 16)
	ses := openSession(t, sys)
	scans := holdQueue(t, ses, tab)
	sub, err := ses.Submit(lookup, WithStaticDegree(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := ses.Drain(); err != nil {
		t.Fatal(err)
	}
	grant, done := grantsAndDones(sys)
	last := scans[len(scans)-1].qid
	if _, ok := grant[last]; !ok || grant[last] <= done[sub.qid] {
		t.Fatalf("the last scan was granted at %v and the lookup done at %v; want the lookup done while the scan queued",
			grant[last], done[sub.qid])
	}
	if at, ok := grant[sub.qid]; ok {
		t.Errorf("the resident lookup was granted at %v; it reads nothing from the device", at)
	}
	if adm := sub.Admission(); adm != (Admission{}) {
		t.Errorf("admission %+v, want none: no grant, no wait", adm)
	}
	res, err := sub.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != alone.Value || res.Rows != alone.Rows {
		t.Errorf("queued answer (%d, %d rows), alone (%d, %d rows)", res.Value, res.Rows, alone.Value, alone.Rows)
	}
	if submitted := time.Duration(sub.submitted); res.Runtime != done[sub.qid]-submitted {
		t.Errorf("Runtime %v, done %v after the submit: with no wait they are one", res.Runtime, done[sub.qid]-submitted)
	}
	assertNoLeaks(t, sys)
}

// TestWantedPageIsReadOnce: forty-eight cold lookups of one key queue
// behind a scan of another table that holds the whole credit supply. They
// all want the same pages: the first serial lookup to miss one parks on its
// intent, the rest wait on it, and the first grant reads it for all of
// them. The device reads what the scan and one lookup read alone, lookups
// finish without passing their gate, and every lookup returns the lone
// answer.
func TestWantedPageIsReadOnce(t *testing.T) {
	sys := New(Config{Device: HDD, PoolPages: 1024})
	var tabs []*Table
	for _, name := range []string{"a", "b"} {
		tab, err := sys.CreateTable(name, 200000, 33)
		if err != nil {
			t.Fatal(err)
		}
		tabs = append(tabs, tab)
	}
	if _, err := sys.Calibrate(CalibrationOptions{MaxReads: 640}); err != nil {
		t.Fatal(err)
	}
	whole := WithPlanOptions(PlanOptions{QueueBudget: 32})
	scan, lookup := Query{Table: tabs[0], Low: 0, High: 4999}, Query{Table: tabs[1], Low: 4242, High: 4242}
	scanAlone, err := sys.Run(context.Background(), scan, Cold(), whole)
	if err != nil {
		t.Fatal(err)
	}
	alone, err := sys.Run(context.Background(), lookup, Cold())
	if err != nil {
		t.Fatal(err)
	}

	sys.FlushBufferPool()
	sys.EnableEventLog(1 << 16)
	ses := openSession(t, sys)
	if _, err := ses.Submit(scan, whole); err != nil {
		t.Fatal(err)
	}
	var subs []*Submission
	for i := 0; i < 48; i++ {
		sub, err := ses.Submit(lookup)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
	}
	dev := sys.coord().Dev.Metrics()
	dev.Reset()
	if err := ses.Drain(); err != nil {
		t.Fatal(err)
	}
	if got, want := dev.Snapshot().Requests, scanAlone.PageReads+alone.PageReads; got != want {
		t.Errorf("the device served %d reads; the scan and one lookup read %d + %d alone",
			got, scanAlone.PageReads, alone.PageReads)
	}
	riders := 0
	for i, sub := range subs {
		r, err := sub.Result()
		if err != nil {
			t.Fatal(err)
		}
		if r.Value != alone.Value || r.Rows != alone.Rows {
			t.Errorf("lookup %d: (%d, %d rows), alone (%d, %d rows)", i, r.Value, r.Rows, alone.Value, alone.Rows)
		}
		if !sub.lease.Gated() {
			riders++
			if w := sub.Admission().Wait; w != 0 {
				t.Errorf("lookup %d never passed its gate and reports a wait of %v", i, w)
			}
		}
	}
	if riders == 0 {
		t.Error("every lookup passed its gate; one read of each page serves them all")
	}
	assertNoLeaks(t, sys)
}

// TestCancelAtTheGate cancels a cold lookup while it waits at its gate —
// its miss parked on a page intent behind scans that hold the queue. The
// cancel wakes the lookup at once: it ends canceled before the first scan
// finishes, its page is never read (the device serves the scans' 263
// requests, not 264), the scans are unaffected, and the drain finds every
// ledger at zero, page intents and their waiters included.
func TestCancelAtTheGate(t *testing.T) {
	sys, tab := newCalibrated(t, SSD, 200000, 33)
	ses := openSession(t, sys)
	scans := holdQueue(t, ses, tab)
	sub, err := ses.Submit(Query{Table: tab, Low: 150000, High: 150000}, WithStaticDegree(1))
	if err != nil {
		t.Fatal(err)
	}
	var intents int
	var admitted bool
	sys.EnableEventLog(1 << 16)
	sys.env.Go("cancel", func(p *sim.Proc) {
		p.Sleep(sim.Millisecond)
		intents, admitted = sys.coord().Pool.Intents(), sub.lease.Admitted()
		sub.Cancel()
	})
	dev := sys.coord().Dev.Metrics()
	dev.Reset()
	start := time.Duration(sys.env.Now())
	if err := ses.Drain(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("drain returned %v, want the lookup's cancel", err)
	}
	if intents == 0 || admitted {
		t.Fatalf("at the cancel: %d page intents, lookup admitted %v; want it parked at its gate", intents, admitted)
	}
	if got := dev.Snapshot().Requests; got != 263 {
		t.Errorf("the drain served %d device requests, want the scans' 263: the canceled lookup reads nothing", got)
	}
	_, done := grantsAndDones(sys)
	if at, first := done[sub.qid]-start, done[scans[0].qid]-start; at != time.Millisecond || at >= first {
		t.Errorf("the lookup ended %v and the first scan %v into the drain; want the lookup at its cancel, 1ms", at, first)
	}
	if _, err := sub.Result(); !errors.Is(err, ErrCanceled) {
		t.Errorf("lookup: err = %v, want ErrCanceled", err)
	}
	for i, s := range scans {
		if _, err := s.Result(); err != nil {
			t.Errorf("scan %d: %v", i, err)
		}
	}
	assertNoLeaks(t, sys)
}

// TestWaitPlusRuntimeIsSubmitToDone runs a serving-shaped batch — hot point
// lookups, many repeating a key, and a few full scans over three tables on
// a hard drive — and checks the accounting of every submission: admission
// wait plus Runtime is its submit-to-done time, and a query that finished
// without passing its gate reports no wait.
func TestWaitPlusRuntimeIsSubmitToDone(t *testing.T) {
	sys := New(Config{Device: HDD, PoolPages: 1024})
	var tabs []*Table
	for i := 0; i < 3; i++ {
		tab, err := sys.CreateTable(fmt.Sprintf("hot%d", i), 40000, 4, WithSyntheticData(), WithTableSeed(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		tabs = append(tabs, tab)
	}
	if _, err := sys.Calibrate(CalibrationOptions{MaxReads: 640}); err != nil {
		t.Fatal(err)
	}
	var batch []Query
	for i := 0; i < 150; i++ {
		key := int64(i*7919) % 40
		batch = append(batch, Query{Table: tabs[i%3], Low: key, High: key})
	}
	for i := 0; i < 6; i++ {
		batch = append(batch, Query{Table: tabs[i%3], Low: 0, High: 39999})
	}
	sys.EnableEventLog(1 << 18)
	start := time.Duration(sys.env.Now())
	res, err := sys.ExecuteConcurrent(batch, Cold())
	if err != nil {
		t.Fatal(err)
	}
	if st := sys.EventLogStats(); st.Dropped != 0 {
		t.Fatalf("event ring wrapped (%d dropped)", st.Dropped)
	}
	grant, done := grantsAndDones(sys)
	ungranted := 0
	for i, r := range res.Results {
		qid := sys.nextQID - int64(len(batch)) + int64(i)
		adm := res.Admissions[i]
		if got, want := adm.Wait+r.Runtime, done[qid]-start; got != want {
			t.Errorf("query %d: wait %v + runtime %v = %v, submit to done %v", i, adm.Wait, r.Runtime, got, want)
		}
		if _, ok := grant[qid]; !ok {
			ungranted++
			if adm != (Admission{}) {
				t.Errorf("query %d finished without a grant and reports %+v", i, adm)
			}
		}
		if r.Rows != batch[i].High-batch[i].Low+1 {
			t.Errorf("query %d matched %d rows, want %d", i, r.Rows, batch[i].High-batch[i].Low+1)
		}
	}
	if ungranted == 0 {
		t.Error("every query was granted; repeated lookups need no grant")
	}
	assertNoLeaks(t, sys)
}

// TestSpansAccountForEveryLookup runs a serving-shaped hard-drive batch and
// checks each serial lookup's trace against its Runtime: the cpu and
// io_wait of its descent and worker spans add up to it. A lookup that
// passed its gate leaves out what passed before its grant, which its admit
// span's wait holds, so the trace splits a lookup's latency as its
// Admission and Result do, and some lookups of the batch do wait.
func TestSpansAccountForEveryLookup(t *testing.T) {
	sys := New(Config{Device: HDD, PoolPages: 1024})
	var tabs []*Table
	for i := 0; i < 3; i++ {
		tab, err := sys.CreateTable(fmt.Sprintf("hot%d", i), 40000, 4, WithSyntheticData(), WithTableSeed(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		tabs = append(tabs, tab)
	}
	if _, err := sys.Calibrate(CalibrationOptions{MaxReads: 640}); err != nil {
		t.Fatal(err)
	}
	var batch []Query
	for i := 0; i < 150; i++ {
		key := int64(i*7919) % 400
		batch = append(batch, Query{Table: tabs[i%3], Low: key, High: key})
	}
	for i := 0; i < 6; i++ {
		batch = append(batch, Query{Table: tabs[i%3], Low: 0, High: 39999})
	}
	lookups, waited := 0, 0
	sys.SetObserver(ObserverFunc(func(tel QueryTelemetry) {
		if tel.Plan.Method != IndexScan || tel.Plan.Degree != 1 {
			return
		}
		var spans, wait time.Duration
		tel.Root.Walk(func(n *SpanNode) {
			spans += spanDuration(t, n, "cpu") + spanDuration(t, n, "io_wait")
			if n.Name == "admit" {
				wait += spanDuration(t, n, "wait")
			}
		})
		lookups++
		if wait > 0 {
			waited++
		}
		// Rendered durations keep four significant digits: allow their
		// rounding, a part in a thousand of each of the few spans.
		if diff := spans - tel.Runtime; diff > tel.Runtime/500+time.Microsecond || -diff > tel.Runtime/500+time.Microsecond {
			t.Errorf("lookup spans add up to %v of cpu and io_wait, its Runtime is %v (admit wait %v)", spans, tel.Runtime, wait)
		}
	}))
	if _, err := sys.ExecuteConcurrent(batch, Cold()); err != nil {
		t.Fatal(err)
	}
	if lookups < 100 || waited == 0 {
		t.Errorf("%d serial lookups observed, %d waited for a grant; want most of the 150, some", lookups, waited)
	}
}

// spanDuration parses a span attribute rendered as a duration; 0 when absent.
func spanDuration(t *testing.T, n *SpanNode, key string) time.Duration {
	v, ok := n.Attr(key)
	if !ok {
		return 0
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		t.Fatalf("span %s: %s = %q: %v", n.Name, key, v, err)
	}
	return d
}

// TestServingLookupsSweepTheDisk runs a serving-shaped hard-drive batch:
// three hundred cold point lookups on the hot stripes of three tables,
// many keys wanted by several lookups, submitted together. Each returns the
// row it returns alone, the drain leaves nothing behind, and the batch ends
// within a makespan that granting the parked reads in submit order misses:
// among reads that free as many queries, dispatch grants the one nearest
// the device's last, so the lookups sweep the tables instead of seeking
// across them.
func TestServingLookupsSweepTheDisk(t *testing.T) {
	sys := New(Config{Device: HDD, PoolPages: 1024, Seed: 1})
	var tabs []*Table
	for i := 0; i < 3; i++ {
		tab, err := sys.CreateTable(fmt.Sprintf("hot%d", i), 40000, 4, WithSyntheticData(), WithTableSeed(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		tabs = append(tabs, tab)
	}
	if _, err := sys.Calibrate(CalibrationOptions{MaxReads: 640}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var batch []Query
	for i := 0; i < 300; i++ {
		key := rng.Int63n(400)
		batch = append(batch, Query{Table: tabs[i%3], Low: key, High: key})
	}
	res, err := sys.ExecuteConcurrent(batch, Cold())
	if err != nil {
		t.Fatal(err)
	}
	assertNoLeaks(t, sys)
	// Granted nearest-first the batch takes 335.7 ms; in submit order among
	// equal waiters, 379.5 ms.
	if res.Elapsed > 350*time.Millisecond {
		t.Errorf("the batch took %v, want at most 350ms: the parked reads seek across the tables", res.Elapsed)
	}
	for i, q := range batch {
		alone, err := sys.Run(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Results[i]; got.Rows != 1 || got.Value != alone.Value {
			t.Errorf("lookup %d of key %d: %d rows, value %d; alone %d rows, value %d", i, q.Low, got.Rows, got.Value, alone.Rows, alone.Value)
		}
	}
}
