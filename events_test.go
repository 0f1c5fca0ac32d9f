package pioqo

import (
	"bytes"
	"context"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// faultedEventRun executes a retry-heavy faulted query mix with the event
// log on and returns the JSONL export.
func faultedEventRun(t *testing.T) []byte {
	t.Helper()
	sys, tab := newCalibrated(t, SSD, 50000, 33)
	sys.EnableEventLog(1 << 14)
	sys.InjectFaults(FaultSchedule{
		Seed: 11,
		Windows: []FaultWindow{{
			ErrorRate:        0.02,
			StragglerRate:    0.1,
			StragglerLatency: 2 * time.Millisecond,
		}},
	})
	if _, err := sys.Run(context.Background(), Query{Table: tab, Low: 0, High: 9999}, Cold()); err != nil {
		t.Fatal(err)
	}
	ses := openSession(t, sys)
	if _, err := ses.Submit(Query{Table: tab, Low: 0, High: 499}); err != nil {
		t.Fatal(err)
	}
	if _, err := ses.Submit(Query{Table: tab, Low: 20000, High: 29999}); err != nil {
		t.Fatal(err)
	}
	if err := ses.Drain(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.WriteEventLog(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestEventLogByteIdenticalReplay(t *testing.T) {
	a := faultedEventRun(t)
	b := faultedEventRun(t)
	if len(a) == 0 {
		t.Fatal("faulted run exported an empty event log")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed fault runs exported different JSONL:\nrun1 %d bytes\nrun2 %d bytes", len(a), len(b))
	}
	// The export must carry the fault-handling story, not just lifecycle.
	for _, want := range []string{
		`"event":"query.start"`, `"event":"query.done"`,
		`"event":"admission.grant"`, `"event":"fault.straggler"`,
	} {
		if !bytes.Contains(a, []byte(want)) {
			t.Errorf("export missing %s", want)
		}
	}
}

func TestEventLogNeverPerturbsExecution(t *testing.T) {
	run := func(logged bool) (Result, time.Duration) {
		sys, tab := newCalibrated(t, SSD, 50000, 33)
		if logged {
			sys.EnableEventLog(0)
		}
		res, err := sys.Run(context.Background(), Query{Table: tab, Low: 0, High: 4999}, Cold())
		if err != nil {
			t.Fatal(err)
		}
		return res, sys.Now()
	}
	r1, t1 := run(false)
	r2, t2 := run(true)
	if !reflect.DeepEqual(r1, r2) || t1 != t2 {
		t.Errorf("enabling the event log changed execution:\n  off %+v at %v\n  on  %+v at %v", r1, t1, r2, t2)
	}
}

func TestEventLogLifecycleAttribution(t *testing.T) {
	sys, tab := newCalibrated(t, SSD, 50000, 33)
	sys.EnableEventLog(0)
	ses := openSession(t, sys)
	sub1, err := ses.Submit(Query{Table: tab, Low: 0, High: 24999})
	if err != nil {
		t.Fatal(err)
	}
	sub2, err := ses.Submit(Query{Table: tab, Low: 30000, High: 30499})
	if err != nil {
		t.Fatal(err)
	}
	if err := ses.Drain(); err != nil {
		t.Fatal(err)
	}
	starts := map[int64]bool{}
	dones := map[int64]int64{}
	grants := map[int64]bool{}
	for _, e := range sys.EngineEvents() {
		switch e.Name {
		case "query.start":
			starts[e.Query] = true
		case "query.done":
			dones[e.Query] = e.A // pages processed
		case "admission.grant":
			grants[e.Query] = true
		case "worker.start", "worker.exit":
			if e.Query < 0 {
				t.Errorf("%s event lost its query attribution", e.Name)
			}
		}
	}
	for _, sub := range []*Submission{sub1, sub2} {
		qid := sub.qid
		if !starts[qid] || !grants[qid] {
			t.Errorf("query %d missing start/grant events (start=%v grant=%v)", qid, starts[qid], grants[qid])
		}
		if pages, ok := dones[qid]; !ok || pages <= 0 {
			t.Errorf("query %d done event reports %d pages", qid, pages)
		}
		if pages := sub.Progress().PagesProcessed; pages != dones[qid] {
			t.Errorf("query %d: done event says %d pages, Progress says %d", qid, dones[qid], pages)
		}
	}
}

// dropped reports how many events the log has overwritten: the first
// retained event's Seq, since Seq is dense from 0 at EnableEventLog.
func dropped(sys *System) uint64 {
	if evs := sys.EngineEvents(); len(evs) > 0 {
		return evs[0].Seq
	}
	return 0
}

// sinceNew reads a registry counter's count since New.
func sinceNew(sys *System, name string) int64 {
	return sys.MetricsSince(MetricsSnapshot{}).Counter(name)
}

// TestEnableEventLogRestartsTheRing: a second EnableEventLog replaces the
// ring with an empty one whose Seq restarts at 0, while the counters the
// events feed keep counting.
func TestEnableEventLogRestartsTheRing(t *testing.T) {
	sys, tab := newCalibrated(t, SSD, 50000, 33)
	q := Query{Table: tab, Low: 0, High: 999}
	sys.EnableEventLog(0)
	if _, err := sys.Run(context.Background(), q, Cold()); err != nil {
		t.Fatal(err)
	}
	first := len(sys.EngineEvents())
	admitted := sinceNew(sys, "broker.admissions")
	sys.EnableEventLog(0)
	if evs := sys.EngineEvents(); first == 0 || len(evs) != 0 {
		t.Fatalf("the first run recorded %d events, the re-enabled ring holds %d; want some, then none", first, len(evs))
	}
	if _, err := sys.Run(context.Background(), q, Cold()); err != nil {
		t.Fatal(err)
	}
	evs := sys.EngineEvents()
	if len(evs) == 0 || evs[0].Seq != 0 || evs[len(evs)-1].Seq != uint64(len(evs)-1) {
		t.Fatalf("the second run's ring holds %d events; want Seq dense from 0", len(evs))
	}
	if got := sinceNew(sys, "broker.admissions"); got != admitted+1 {
		t.Errorf("broker.admissions read %d after the second run, %d after the first; re-enabling the log must not reset it", got, admitted)
	}
}

func TestLiveProgressDuringDrain(t *testing.T) {
	sys, tab := newCalibrated(t, SSD, 100000, 33)
	ses, err := sys.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	big, err := ses.Submit(Query{Table: tab, Low: 0, High: 99999}, Cold())
	if err != nil {
		t.Fatal(err)
	}
	small, err := ses.Submit(Query{Table: tab, Low: 0, High: 99})
	if err != nil {
		t.Fatal(err)
	}
	// The observer fires as each query completes — mid-Drain from the other
	// query's vantage point. Record the big scan's progress at each firing.
	var mid []QueryProgress
	sys.SetObserver(ObserverFunc(func(QueryTelemetry) {
		mid = append(mid, big.Progress())
	}))
	defer sys.SetObserver(nil)
	if err := ses.Drain(); err != nil {
		t.Fatal(err)
	}
	final := big.Progress()
	if !final.Done || final.PagesProcessed <= 0 || final.EstimatedPages <= 0 {
		t.Fatalf("final progress %+v, want done with pages counted", final)
	}
	if got := small.Progress(); !got.Done {
		t.Errorf("small query progress %+v, want done", got)
	}
	// The small query finishes first, so its observer callback saw the big
	// scan live: started, partially through its estimate, not done.
	saw := false
	for _, p := range mid {
		if p.Started && !p.Done && p.PagesProcessed > 0 && p.PagesProcessed < final.PagesProcessed {
			saw = true
			if p.Remaining <= 0 {
				t.Errorf("mid-run progress %+v reports nothing remaining", p)
			}
		}
	}
	if !saw {
		t.Errorf("no observer callback saw the big scan mid-run: %+v", mid)
	}
	// The full scan's estimate is exact: every heap page is processed once.
	if final.PagesProcessed != tab.Pages() {
		t.Errorf("full scan processed %d pages, table has %d", final.PagesProcessed, tab.Pages())
	}
}

func TestSLOReportShapes(t *testing.T) {
	sys, tab := newCalibrated(t, SSD, 100000, 33)
	queries := []Query{
		{Table: tab, Low: 0, High: 9999}, // one mid-selectivity shape
		{Table: tab, Low: 20000, High: 20099},
		{Table: tab, Low: 30000, High: 30099},
		{Table: tab, Low: 40000, High: 40099},
	}
	res, err := sys.ExecuteConcurrent(queries, Cold())
	if err != nil {
		t.Fatal(err)
	}
	rep := res.SLOReport(queries)
	if rep.Queries != len(queries) || rep.Makespan != res.Elapsed {
		t.Fatalf("report header %+v, want %d queries makespan %v", rep, len(queries), res.Elapsed)
	}
	if len(rep.Shapes) != 2 {
		t.Fatalf("got %d shapes, want 2 (mid + small): %+v", len(rep.Shapes), rep.Shapes)
	}
	mid, small := rep.Shapes[0], rep.Shapes[1]
	if mid.Queries != 1 || small.Queries != 3 {
		t.Errorf("shape sizes %d/%d, want 1/3", mid.Queries, small.Queries)
	}
	for _, s := range rep.Shapes {
		if s.P50 > s.P95 || s.P95 > s.P99 {
			t.Errorf("shape %q percentiles not monotone: %v %v %v", s.Shape, s.P50, s.P95, s.P99)
		}
		if s.P99 <= 0 || s.MeanExec <= 0 {
			t.Errorf("shape %q has empty latencies: %+v", s.Shape, s)
		}
		if s.MeanWait+s.MeanExec > rep.Makespan {
			t.Errorf("shape %q mean latency %v exceeds makespan %v", s.Shape, s.MeanWait+s.MeanExec, rep.Makespan)
		}
	}
	out := rep.String()
	for _, want := range []string{"makespan", "p50", "p95", "p99", mid.Shape, small.Shape} {
		if !strings.Contains(out, want) {
			t.Errorf("report table missing %q:\n%s", want, out)
		}
	}
}

// TestConcurrentAttributionNoBleed exercises the per-query telemetry paths
// the race detector must see clean: a system observer plus one WithTrace
// capture per submission, drained together. Each query's telemetry must
// carry its own rows — attribution may not bleed across queries sharing
// the broker and registry.
func TestConcurrentAttributionNoBleed(t *testing.T) {
	sys, tab := newCalibrated(t, SSD, 50000, 33)
	calls := 0
	sys.SetObserver(ObserverFunc(func(QueryTelemetry) { calls++ }))
	defer sys.SetObserver(nil)

	ses, err := sys.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	ranges := []struct{ lo, hi int64 }{
		{0, 9999}, {10000, 10499}, {20000, 20099}, {30000, 34999},
	}
	tels := make([]QueryTelemetry, len(ranges))
	subs := make([]*Submission, len(ranges))
	for i, r := range ranges {
		subs[i], err = ses.Submit(Query{Table: tab, Low: r.lo, High: r.hi}, WithTrace(&tels[i]))
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := ses.Drain(); err != nil {
		t.Fatal(err)
	}
	if calls != len(ranges) {
		t.Errorf("observer fired %d times for %d queries", calls, len(ranges))
	}
	for i, sub := range subs {
		res, err := sub.Result()
		if err != nil {
			t.Fatal(err)
		}
		if tels[i].Root == nil {
			t.Fatalf("query %d: WithTrace captured no span tree", i)
		}
		rows, found := "", false
		tels[i].Root.Walk(func(n *SpanNode) {
			if found {
				return
			}
			if v, ok := n.Attr("rows"); ok {
				rows, found = v, true
			}
		})
		if !found {
			t.Fatalf("query %d: no operator span with a rows attribute", i)
		}
		if want := strconv.FormatInt(res.Rows, 10); rows != want {
			t.Errorf("query %d: span rows=%s, result rows=%s — attribution bled", i, rows, want)
		}
	}
}
