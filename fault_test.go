package pioqo

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"
)

// pollCtx is a deterministic cancellation source: Err starts returning
// context.Canceled after the first `after` calls. The executor polls at
// batch boundaries, so the cancel lands mid-scan at a reproducible point —
// no host timing involved.
type pollCtx struct {
	context.Context
	calls, after int
	done         chan struct{}
}

func newPollCtx(after int) *pollCtx {
	return &pollCtx{Context: context.Background(), after: after, done: make(chan struct{})}
}

func (c *pollCtx) Done() <-chan struct{} { return c.done }

func (c *pollCtx) Err() error {
	c.calls++
	if c.calls > c.after {
		return context.Canceled
	}
	return nil
}

func TestQueryPreCanceledContext(t *testing.T) {
	sys, tab := newCalibrated(t, SSD, 50000, 33)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := sys.Query(ctx, Query{Table: tab, Low: 0, High: 999})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatal("taxonomy error does not satisfy errors.Is(err, context.Canceled)")
	}
	var qe *QueryError
	if !errors.As(err, &qe) {
		t.Fatalf("err %T does not unwrap to *QueryError", err)
	}
	if qe.Op != "query" || qe.Table != "t" {
		t.Errorf("QueryError = {%q %q}, want {query t}", qe.Op, qe.Table)
	}
}

func TestQueryExpiredContextDeadline(t *testing.T) {
	sys, tab := newCalibrated(t, SSD, 50000, 33)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := sys.Query(ctx, Query{Table: tab, Low: 0, High: 999})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("taxonomy error does not satisfy errors.Is(err, context.DeadlineExceeded)")
	}
}

// assertNoLeaks checks the post-query invariants every abort path must
// leave behind: no live simulation processes, no pinned buffer frames, and
// (when the broker exists) no outstanding credits or pool reservations.
func assertNoLeaks(t *testing.T, sys *System) {
	t.Helper()
	if n := sys.env.LiveProcs(); n != 0 {
		t.Errorf("%d simulation processes leaked", n)
	}
	for _, n := range sys.nodes {
		if pins := n.Pool.Pinned(); pins != 0 {
			t.Errorf("node %d: %d buffer pins leaked", n.ID, pins)
		}
	}
	if sys.broker != nil {
		if n := sys.broker.InUse(); n != 0 {
			t.Errorf("%d broker credits leaked", n)
		}
		if n := sys.broker.PoolInUse(); n != 0 {
			t.Errorf("%d reserved pool pages leaked", n)
		}
	}
}

func TestWithTimeoutAbortsMidScan(t *testing.T) {
	sys, tab := newCalibrated(t, SSD, 200000, 33)
	q := Query{Table: tab, Low: 0, High: 150000}
	_, err := sys.Execute(q, Cold(), WithTimeout(500*time.Microsecond))
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	assertNoLeaks(t, sys)

	// The system survives the abort: the same query without a timeout runs
	// to completion and matches a fresh system's answer.
	res, err := sys.Execute(q, Cold())
	if err != nil {
		t.Fatalf("rerun after timeout failed: %v", err)
	}
	sys2, tab2 := newCalibrated(t, SSD, 200000, 33)
	want, err := sys2.Execute(Query{Table: tab2, Low: 0, High: 150000}, Cold())
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != want.Value || res.Rows != want.Rows {
		t.Errorf("post-abort answer (%d,%d) != fresh system answer (%d,%d)",
			res.Value, res.Rows, want.Value, want.Rows)
	}
}

func TestPollCancellationMidScan(t *testing.T) {
	sys, tab := newCalibrated(t, SSD, 200000, 33)
	ctx := newPollCtx(40)
	_, err := sys.Query(ctx, Query{Table: tab, Low: 0, High: 150000}, Cold())
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if ctx.calls <= 40 {
		t.Fatalf("query finished after %d polls; the cancel never landed mid-scan", ctx.calls)
	}
	assertNoLeaks(t, sys)
}

func TestExecuteIsQueryWithBackgroundContext(t *testing.T) {
	sys, tab := newCalibrated(t, SSD, 50000, 33)
	q := Query{Table: tab, Low: 1000, High: 4999}
	a, err := sys.Execute(q, Cold())
	if err != nil {
		t.Fatal(err)
	}
	sys2, tab2 := newCalibrated(t, SSD, 50000, 33)
	b, err := sys2.Query(context.Background(), Query{Table: tab2, Low: 1000, High: 4999}, Cold())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("Execute result %+v != Query result %+v", a, b)
	}
}

func TestInertControlPreservesByteIdentity(t *testing.T) {
	// A query with an abort control that never trips (generous timeout,
	// polled context that stays live) must run byte-identically to one with
	// no control at all: same answer, same virtual runtime, same I/O count.
	run := func(opts ...QueryOption) Result {
		sys, tab := newCalibrated(t, SSD, 50000, 33)
		res, err := sys.Execute(Query{Table: tab, Low: 0, High: 9999}, append(opts, Cold())...)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run()
	timed := run(WithTimeout(time.Hour))
	if plain != timed {
		t.Errorf("WithTimeout(inert) changed the run:\n  plain %+v\n  timed %+v", plain, timed)
	}
}

func TestZeroFaultScheduleIsByteIdentical(t *testing.T) {
	run := func(cfg Config) Result {
		sys := New(cfg)
		tab, err := sys.CreateTable("t", 50000, 33)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Calibrate(CalibrationOptions{MaxReads: 640}); err != nil {
			t.Fatal(err)
		}
		res, err := sys.Execute(Query{Table: tab, Low: 0, High: 9999}, Cold())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(Config{Device: SSD, PoolPages: 1024})
	armedEmpty := run(Config{Device: SSD, PoolPages: 1024, Faults: &FaultSchedule{}})
	if plain != armedEmpty {
		t.Errorf("empty fault schedule changed the run:\n  plain %+v\n  armed %+v", plain, armedEmpty)
	}
}

func TestDeterministicFaultReplay(t *testing.T) {
	run := func() (Result, error, FaultStats) {
		sys, tab := newCalibrated(t, SSD, 50000, 33)
		sys.InjectFaults(FaultSchedule{
			Seed: 11,
			Windows: []FaultWindow{{
				ErrorRate:        0.02,
				StragglerRate:    0.1,
				StragglerLatency: 2 * time.Millisecond,
			}},
		})
		res, err := sys.Execute(Query{Table: tab, Low: 0, High: 9999}, Cold())
		return res, err, sys.FaultStats()
	}
	r1, e1, s1 := run()
	r2, e2, s2 := run()
	if r1 != r2 || s1 != s2 || (e1 == nil) != (e2 == nil) {
		t.Errorf("identical fault schedules diverged:\n  run1 %+v %v %+v\n  run2 %+v %v %+v",
			r1, e1, s1, r2, e2, s2)
	}
}

func TestDeviceFaultSurvivingRetriesFailsQuery(t *testing.T) {
	sys, tab := newCalibrated(t, SSD, 50000, 33)
	sys.InjectFaults(FaultSchedule{Windows: []FaultWindow{{ErrorRate: 1}}})
	_, err := sys.Execute(Query{Table: tab, Low: 0, High: 999}, Cold())
	if !errors.Is(err, ErrDeviceFault) {
		t.Fatalf("err = %v, want ErrDeviceFault", err)
	}
	assertNoLeaks(t, sys)

	// Recovery: clear the faults and the same query succeeds.
	sys.ClearFaults()
	if _, err := sys.Execute(Query{Table: tab, Low: 0, High: 999}, Cold()); err != nil {
		t.Fatalf("query after ClearFaults failed: %v", err)
	}
}

func TestConcurrentTimeoutReclaimsEverything(t *testing.T) {
	sys, tab := newCalibrated(t, SSD, 100000, 33)
	queries := []Query{
		{Table: tab, Low: 0, High: 79999},
		{Table: tab, Low: 80000, High: 80999},
	}
	_, err := sys.ExecuteConcurrent(queries, Cold(), WithTimeout(300*time.Microsecond))
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	assertNoLeaks(t, sys)

	// The broker is intact: a healthy batch on the same system still runs.
	res, err := sys.ExecuteConcurrent([]Query{
		{Table: tab, Low: 0, High: 999},
		{Table: tab, Low: 5000, High: 5999},
	}, Cold())
	if err != nil {
		t.Fatalf("batch after timeout failed: %v", err)
	}
	if len(res.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(res.Results))
	}
	assertNoLeaks(t, sys)
}

func TestConcurrentSubmitErrorReclaimsPartialBatch(t *testing.T) {
	sys, tab := newCalibrated(t, SSD, 50000, 33)
	// The second query is invalid, so the first — already enqueued with the
	// broker — must be canceled and reclaimed before the error returns.
	_, err := sys.ExecuteConcurrent([]Query{
		{Table: tab, Low: 0, High: 9999},
		{Table: nil, Low: 0, High: 1},
	}, Cold())
	if !errors.Is(err, ErrInvalidQuery) {
		t.Fatalf("err = %v, want ErrInvalidQuery", err)
	}
	assertNoLeaks(t, sys)

	// A sole follow-up query sees an idle broker again: unbounded lease.
	sub, err := sys.Submit(Query{Table: tab, Low: 0, High: 999})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := sub.Admission().Budget; got != 0 {
		t.Errorf("sole query after failed batch: budget = %d, want 0 (unbounded)", got)
	}
}

func TestSessionCloseRejectsSubmit(t *testing.T) {
	sys, tab := newCalibrated(t, SSD, 50000, 33)
	ses, err := sys.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	sub, err := ses.Submit(Query{Table: tab, Low: 0, High: 999})
	if err != nil {
		t.Fatal(err)
	}
	ses.Close()
	if _, err := ses.Submit(Query{Table: tab, Low: 1000, High: 1999}); !errors.Is(err, ErrAdmissionClosed) {
		t.Fatalf("Submit after Close: err = %v, want ErrAdmissionClosed", err)
	}
	// The pre-close submission still runs.
	if err := ses.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := sub.Result(); err != nil {
		t.Fatalf("pre-close submission failed: %v", err)
	}
}

func TestSubmissionCancelBeforeDrain(t *testing.T) {
	sys, tab := newCalibrated(t, SSD, 50000, 33)
	ses, err := sys.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	sub, err := ses.Submit(Query{Table: tab, Low: 0, High: 9999})
	if err != nil {
		t.Fatal(err)
	}
	sub.Cancel()
	err = ses.Drain()
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("Drain err = %v, want ErrCanceled", err)
	}
	assertNoLeaks(t, sys)
}

func TestNotCalibratedTaxonomy(t *testing.T) {
	sys := New(Config{Device: SSD, PoolPages: 256})
	tab, err := sys.CreateTable("t", 1000, 33)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Execute(Query{Table: tab, Low: 0, High: 9}); !errors.Is(err, ErrNotCalibrated) {
		t.Errorf("Execute uncalibrated: err = %v, want ErrNotCalibrated", err)
	}
	if _, err := sys.ExecuteConcurrent([]Query{{Table: tab, Low: 0, High: 9}}); !errors.Is(err, ErrNotCalibrated) {
		t.Errorf("ExecuteConcurrent uncalibrated: err = %v, want ErrNotCalibrated", err)
	}
	if _, err := sys.OpenSession(); !errors.Is(err, ErrNotCalibrated) {
		t.Errorf("OpenSession uncalibrated: err = %v, want ErrNotCalibrated", err)
	}
	if _, err := sys.Model(); !errors.Is(err, ErrNotCalibrated) {
		t.Errorf("Model uncalibrated: err = %v, want ErrNotCalibrated", err)
	}
	if _, err := sys.Execute(Query{}); !errors.Is(err, ErrInvalidQuery) {
		t.Errorf("Execute without table: err = %v, want ErrInvalidQuery", err)
	}
}

// ExecuteGroupBy carries the same fault control as Execute: a read error
// that outlives the retry policy comes back as a taxonomy error — on the
// single-node path and from a 4-shard gather — with nothing left pinned,
// leased or running, and the system usable once the faults clear.
func TestGroupByDeviceFaultFailsQuery(t *testing.T) {
	single, singleTab := newCalibrated(t, SSD, 50000, 33)
	sharded, shardedTab := newShardedCalibrated(t, 4, PartitionHash, 50000, 0)
	for _, c := range []struct {
		name string
		sys  *System
		tab  *Table
	}{{"single-node", single, singleTab}, {"4-shard", sharded, shardedTab}} {
		q := GroupByQuery{Table: c.tab, Low: 0, High: 9999, GroupWidth: 1000, Agg: Sum}
		want, err := c.sys.ExecuteGroupBy(q, Cold())
		if err != nil {
			t.Fatalf("%s: healthy group-by failed: %v", c.name, err)
		}
		c.sys.InjectFaults(FaultSchedule{Windows: []FaultWindow{{ErrorRate: 1}}})
		_, err = c.sys.ExecuteGroupBy(q, Cold(), WithRetry(RetryPolicy{MaxAttempts: 2}))
		if !errors.Is(err, ErrDeviceFault) {
			t.Fatalf("%s: err = %v, want ErrDeviceFault", c.name, err)
		}
		assertNoLeaks(t, c.sys)

		c.sys.ClearFaults()
		got, err := c.sys.ExecuteGroupBy(q, Cold())
		if err != nil {
			t.Fatalf("%s: group-by after ClearFaults failed: %v", c.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: group-by after a faulted run differs from the healthy run", c.name)
		}
	}
}
