package pioqo

import (
	"context"
	"errors"
	"fmt"
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
	_, err := sys.Run(ctx, Query{Table: tab, Low: 0, High: 999})
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
	_, err := sys.Run(ctx, Query{Table: tab, Low: 0, High: 999})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("taxonomy error does not satisfy errors.Is(err, context.DeadlineExceeded)")
	}
}

// assertNoLeaks checks the post-query invariants every abort path must
// leave behind: the ledgers System.drain reads (leaks) are all at zero.
func assertNoLeaks(t *testing.T, sys *System) {
	t.Helper()
	for _, l := range sys.leaks() {
		t.Errorf("leaked %s", l)
	}
}

// TestLeaksNameAnOutstandingDeviceRequest: a read submitted to node 1's
// device and never run to completion is a ledger leaks names by node; once
// the Env runs it, nothing is left.
func TestLeaksNameAnOutstandingDeviceRequest(t *testing.T) {
	sys := New(Config{Device: SSD, PoolPages: 256, Shards: 2})
	sys.nodes[1].Dev.ReadAt(0, 4096)
	want := "1 device requests outstanding on node 1"
	if l := sys.leaks(); !reflect.DeepEqual(l, []string{want}) {
		t.Fatalf("leaks() = %q, want [%q]", l, want)
	}
	sys.env.Run()
	assertNoLeaks(t, sys)
}

func TestWithTimeoutAbortsMidScan(t *testing.T) {
	sys, tab := newCalibrated(t, SSD, 200000, 33)
	q := Query{Table: tab, Low: 0, High: 150000}
	_, err := sys.Run(context.Background(), q, Cold(), WithTimeout(500*time.Microsecond))
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	assertNoLeaks(t, sys)

	// The system survives the abort: the same query without a timeout runs
	// to completion and matches a fresh system's answer.
	res, err := sys.Run(context.Background(), q, Cold())
	if err != nil {
		t.Fatalf("rerun after timeout failed: %v", err)
	}
	sys2, tab2 := newCalibrated(t, SSD, 200000, 33)
	want, err := sys2.Run(context.Background(), Query{Table: tab2, Low: 0, High: 150000}, Cold())
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
	_, err := sys.Run(ctx, Query{Table: tab, Low: 0, High: 150000}, Cold())
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if ctx.calls <= 40 {
		t.Fatalf("query finished after %d polls; the cancel never landed mid-scan", ctx.calls)
	}
	assertNoLeaks(t, sys)
}

// TestWrappersAreRun pins the deprecated per-operation calls to Run: run in
// the same order on twin systems, each returns in its own result type
// exactly what Run returns for the same request.
func TestWrappersAreRun(t *testing.T) {
	a, b := newLifecycleFixture(t, 1), newLifecycleFixture(t, 1)
	bg := context.Background()
	scan := func(f lifecycleFixture) Query { return Query{Table: f.t, Low: 1000, High: 4999} }
	forced := Plan{Method: IndexScan, Degree: 8}
	groupBy := func(f lifecycleFixture) GroupByQuery {
		return GroupByQuery{Table: f.t, Low: 0, High: 9999, GroupWidth: 1000, Agg: Sum}
	}
	join := func(f lifecycleFixture) JoinQuery {
		return JoinQuery{Build: f.skewed, Probe: f.big, Low: 0, High: 29999}
	}
	update := func(f lifecycleFixture) UpdateQuery { return UpdateQuery{Table: f.t, Low: 0, High: 9999, Delta: 1} }
	for _, c := range []struct {
		name    string
		wrapper func(f lifecycleFixture) (any, error)
		run     func(f lifecycleFixture) (any, error) // Run, in the wrapper's result type
	}{
		{"Execute",
			func(f lifecycleFixture) (any, error) { return f.sys.Execute(scan(f), Cold()) },
			func(f lifecycleFixture) (any, error) { return f.sys.Run(bg, scan(f), Cold()) }},
		{"ExecutePlan",
			func(f lifecycleFixture) (any, error) { return f.sys.ExecutePlan(scan(f), forced, Cold()) },
			func(f lifecycleFixture) (any, error) { return f.sys.Run(bg, scan(f), WithPlan(forced), Cold()) }},
		{"ExecuteGroupBy",
			func(f lifecycleFixture) (any, error) { return f.sys.ExecuteGroupBy(groupBy(f), Cold()) },
			func(f lifecycleFixture) (any, error) {
				res, err := f.sys.Run(bg, groupBy(f), Cold())
				return GroupByResult{Groups: res.Groups, Rows: res.Rows, Plan: res.Plan, Runtime: res.Runtime}, err
			}},
		{"ExecuteJoin",
			func(f lifecycleFixture) (any, error) { return f.sys.ExecuteJoin(join(f), Cold()) },
			func(f lifecycleFixture) (any, error) {
				res, err := f.sys.Run(bg, join(f), Cold())
				j := res.Plan.Join
				return JoinResult{Value: res.Value, Found: res.Found, Pairs: res.Rows, BuildRows: res.BuildRows, ProbeRows: res.ProbeRows,
					Method: j.Method, BuildPlan: j.Build, ProbePlan: j.Probe, Runtime: res.Runtime}, err
			}},
		{"Update",
			func(f lifecycleFixture) (any, error) { return f.sys.Update(update(f), Cold()) },
			func(f lifecycleFixture) (any, error) {
				res, err := f.sys.Run(bg, update(f), Cold())
				return UpdateResult{RowsUpdated: res.Rows, PagesWritten: res.PagesWritten, Plan: res.Plan, Runtime: res.Runtime}, err
			}},
	} {
		got, err := c.wrapper(a)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want, err := c.run(b)
		if err != nil {
			t.Fatalf("Run for %s: %v", c.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s returned\n%+v\nRun returned\n%+v", c.name, got, want)
		}
	}
}

func TestInertControlPreservesByteIdentity(t *testing.T) {
	// A query with an abort control that never trips (generous timeout,
	// polled context that stays live) must run byte-identically to one with
	// no control at all: same answer, same virtual runtime, same I/O count.
	run := func(opts ...QueryOption) Result {
		sys, tab := newCalibrated(t, SSD, 50000, 33)
		res, err := sys.Run(context.Background(), Query{Table: tab, Low: 0, High: 9999}, append(opts, Cold())...)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run()
	timed := run(WithTimeout(time.Hour))
	if !reflect.DeepEqual(plain, timed) {
		t.Errorf("WithTimeout(inert) changed the run:\n  plain %+v\n  timed %+v", plain, timed)
	}
}

func TestZeroFaultScheduleIsByteIdentical(t *testing.T) {
	run := func(armed bool) Result {
		sys := New(Config{Device: SSD, PoolPages: 1024})
		if armed {
			sys.InjectFaults(FaultSchedule{})
		}
		tab, err := sys.CreateTable("t", 50000, 33)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Calibrate(CalibrationOptions{MaxReads: 640}); err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(context.Background(), Query{Table: tab, Low: 0, High: 9999}, Cold())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(false)
	armedEmpty := run(true)
	if !reflect.DeepEqual(plain, armedEmpty) {
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
		res, err := sys.Run(context.Background(), Query{Table: tab, Low: 0, High: 9999}, Cold())
		return res, err, sys.FaultStats()
	}
	r1, e1, s1 := run()
	r2, e2, s2 := run()
	if !reflect.DeepEqual(r1, r2) || s1 != s2 || (e1 == nil) != (e2 == nil) {
		t.Errorf("identical fault schedules diverged:\n  run1 %+v %v %+v\n  run2 %+v %v %+v",
			r1, e1, s1, r2, e2, s2)
	}
}

func TestDeviceFaultSurvivingRetriesFailsQuery(t *testing.T) {
	sys, tab := newCalibrated(t, SSD, 50000, 33)
	sys.InjectFaults(FaultSchedule{Windows: []FaultWindow{{ErrorRate: 1}}})
	_, err := sys.Run(context.Background(), Query{Table: tab, Low: 0, High: 999}, Cold())
	if !errors.Is(err, ErrDeviceFault) {
		t.Fatalf("err = %v, want ErrDeviceFault", err)
	}
	assertNoLeaks(t, sys)

	// Recovery: clear the faults and the same query succeeds.
	sys.ClearFaults()
	if _, err := sys.Run(context.Background(), Query{Table: tab, Low: 0, High: 999}, Cold()); err != nil {
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

// TestDegradedPlanBeatsHealthyDepth: with half the SSD's channels lost
// after calibration, a skewed batch planned at submit and admitted under the
// broker's degraded credit supply pays fewer throttle penalties than the
// same batch planned at the healthy depth (noDegrade, this test's reference
// arm).
func TestDegradedPlanBeatsHealthyDepth(t *testing.T) {
	throttled := func(noDegrade bool) int64 {
		const rows = 2048 * 33
		sys := New(Config{Device: SSD, PoolPages: 256})
		sys.noDegrade = noDegrade
		tab, err := sys.CreateTable("deg", rows, 33, WithSyntheticData())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Calibrate(CalibrationOptions{MaxReads: 640}); err != nil {
			t.Fatal(err)
		}
		sys.InjectFaults(FaultSchedule{Windows: []FaultWindow{{ChannelLoss: 0.5}}})
		// One 0.25 % scan, whose index plan needs a deep queue budget to
		// win, and seven 0.05 % slivers.
		queries := []Query{{Table: tab, Low: 0, High: rows/400 - 1}}
		for i := int64(1); i < 8; i++ {
			lo := rows/400 + i*(rows-rows/400)/8
			queries = append(queries, Query{Table: tab, Low: lo, High: lo + rows/2000 - 1})
		}
		if _, err := sys.ExecuteConcurrent(queries, Cold()); err != nil {
			t.Fatal(err)
		}
		return sys.FaultStats().Throttled
	}
	if degraded, healthy := throttled(false), throttled(true); degraded >= healthy {
		t.Errorf("batch planned at the degraded supply throttled %d reads, at the healthy depth %d; the supply shrink had no effect",
			degraded, healthy)
	}
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
	ses := openSession(t, sys)
	sub, err := ses.Submit(Query{Table: tab, Low: 0, High: 999})
	if err != nil {
		t.Fatal(err)
	}
	if err := ses.Drain(); err != nil {
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
	if _, err := sys.Run(context.Background(), Query{Table: tab, Low: 0, High: 9}); !errors.Is(err, ErrNotCalibrated) {
		t.Errorf("Run uncalibrated: err = %v, want ErrNotCalibrated", err)
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
	if _, err := sys.Run(context.Background(), Query{}); !errors.Is(err, ErrInvalidQuery) {
		t.Errorf("Run without table: err = %v, want ErrInvalidQuery", err)
	}
}

// lifecycleFixture is one calibrated system with the tables the entry-point
// rows below run over: t serves the scans, the updates and the hash join's
// build side; skewed repeats few keys, which flips the planner to the index
// nested-loop join (TestJoinMethodSelection forces the same shapes both
// ways: NL 5.8 ms, hash 10.2 ms); big is the joins' probe side. A sharded
// fixture has only t.
type lifecycleFixture struct {
	sys            *System
	t, skewed, big *Table
}

func newLifecycleFixture(t *testing.T, shards int) lifecycleFixture {
	t.Helper()
	f := lifecycleFixture{sys: New(Config{Device: SSD, PoolPages: 2048, Shards: shards})}
	f.sys.EnableEventLog(1 << 16)
	create := func(name string, rows int64, opts ...TableOption) *Table {
		tab, err := f.sys.CreateTable(name, rows, 33, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	f.t = create("t", 30000)
	if shards == 1 {
		f.skewed = create("skewed", 30000, WithZipfData(2.0))
		f.big = create("big", 80000)
	}
	if _, err := f.sys.Calibrate(CalibrationOptions{MaxReads: 640}); err != nil {
		t.Fatal(err)
	}
	return f
}

// entryPoint is one way to run a request: Run, or Session.Submit and a
// Drain. Rows with shards > 1 run on a sharded fixture; a join row names
// the method it is meant to cover.
type entryPoint struct {
	name   string
	shards int
	submit bool
	req    func(f lifecycleFixture) Request
	opts   []QueryOption // the row's own, ahead of the caller's
	method string
}

// entryPoints lists every request kind on both paths, and the sharded scan
// and group-by on both. The Run rows keep the names of the calls they
// replaced, so each test id follows its operation across the move to Run.
var entryPoints = func() []entryPoint {
	scan := func(f lifecycleFixture) Request { return Query{Table: f.t, Low: 0, High: 9999} }
	groupBy := func(f lifecycleFixture) Request {
		return GroupByQuery{Table: f.t, Low: 0, High: 9999, GroupWidth: 1000, Agg: Sum}
	}
	hashJoin := func(f lifecycleFixture) Request { return JoinQuery{Build: f.t, Probe: f.big, Low: 0, High: 29999} }
	nlJoin := func(f lifecycleFixture) Request { return JoinQuery{Build: f.skewed, Probe: f.big, Low: 0, High: 29999} }
	update := func(f lifecycleFixture) Request { return UpdateQuery{Table: f.t, Low: 0, High: 9999, Delta: 1} }
	forced := []QueryOption{WithPlan(Plan{Method: IndexScan, Degree: 8})}
	return []entryPoint{
		{name: "Query", shards: 1, req: scan},
		{name: "Query/4-shard", shards: 4, req: scan},
		{name: "ExecutePlan", shards: 1, req: scan, opts: forced},
		{name: "ExecuteGroupBy", shards: 1, req: groupBy},
		{name: "ExecuteGroupBy/4-shard", shards: 4, req: groupBy},
		{name: "ExecuteJoin/HashJoin", shards: 1, req: hashJoin, method: "HashJoin"},
		{name: "ExecuteJoin/IndexNLJoin", shards: 1, req: nlJoin, method: "IndexNLJoin"},
		{name: "Update", shards: 1, req: update},
		{name: "Submit", shards: 1, submit: true, req: scan},
		{name: "Submit/4-shard", shards: 4, submit: true, req: scan},
		{name: "Submit/GroupBy", shards: 1, submit: true, req: groupBy},
		{name: "Submit/GroupBy/4-shard", shards: 4, submit: true, req: groupBy},
		{name: "Submit/Join/HashJoin", shards: 1, submit: true, req: hashJoin, method: "HashJoin"},
		{name: "Submit/Join/IndexNLJoin", shards: 1, submit: true, req: nlJoin, method: "IndexNLJoin"},
		{name: "Submit/Update", shards: 1, submit: true, req: update},
	}
}()

// run runs the row's request on f — a Submit row ignores ctx — and returns
// its result and the plans it reports (a join's top-level plan and both of
// its sides).
func (e entryPoint) run(f lifecycleFixture, ctx context.Context, opts ...QueryOption) (Result, []Plan, error) {
	opts = append(e.opts[:len(e.opts):len(e.opts)], opts...)
	var res Result
	var err error
	if e.submit {
		res, err = submitAndDrain(f.sys, e.req(f), opts...)
	} else {
		res, err = f.sys.Run(ctx, e.req(f), opts...)
	}
	plans := []Plan{res.Plan}
	if j := res.Plan.Join; j != nil {
		plans = append(plans, j.Build, j.Probe)
		if j.Method != e.method {
			err = fmt.Errorf("planner chose %s; the row is meant to cover %s", j.Method, e.method)
		}
	}
	return res, plans, err
}

// submitAndDrain runs req alone in a new session on sys.
func submitAndDrain(sys *System, req Request, opts ...QueryOption) (Result, error) {
	ses, err := sys.OpenSession()
	if err != nil {
		return Result{}, err
	}
	sub, err := ses.Submit(req, opts...)
	if err != nil {
		return Result{}, err
	}
	if err := ses.Drain(); err != nil {
		return Result{}, err
	}
	return sub.Result()
}

// TestEntryPointsAbortUniformly: every entry point runs through the one
// query lifecycle, so each answers every abort source the same way — a
// *QueryError wrapping the taxonomy sentinel, never a panic, with nothing
// left pinned, leased or running — and the abort leaves no state behind
// that changes a later answer: the same run afterwards returns exactly what
// it returned before.
func TestEntryPointsAbortUniformly(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	aborts := []struct {
		name     string
		needsCtx bool
		ctx      context.Context
		faults   *FaultSchedule
		opts     []QueryOption
		want     error
	}{
		{"read errors outlive the retry policy", false, context.Background(),
			&FaultSchedule{Windows: []FaultWindow{{ErrorRate: 1}}},
			[]QueryOption{Cold(), WithRetry(RetryPolicy{MaxAttempts: 2})}, ErrDeviceFault},
		{"tiny timeout", false, context.Background(), nil,
			[]QueryOption{Cold(), WithTimeout(50 * time.Microsecond)}, ErrDeadlineExceeded},
		{"pre-cancelled context", true, canceled, nil, []QueryOption{Cold()}, ErrCanceled},
	}
	fixtures := map[int]lifecycleFixture{}
	for _, e := range entryPoints {
		f, ok := fixtures[e.shards]
		if !ok {
			f = newLifecycleFixture(t, e.shards)
			fixtures[e.shards] = f
		}
		for _, a := range aborts {
			if a.needsCtx && e.submit {
				continue
			}
			t.Run(e.name+"/"+a.name, func(t *testing.T) {
				// The device's readahead position carries from one run into
				// the next, so the baseline is the second of two healthy
				// runs: like the run after the abort, it follows a run of
				// this same query.
				var want Result
				for range 2 {
					var err error
					if want, _, err = e.run(f, context.Background(), Cold()); err != nil {
						t.Fatalf("healthy run failed: %v", err)
					}
				}
				if a.faults != nil {
					f.sys.InjectFaults(*a.faults)
					defer f.sys.ClearFaults()
				}
				_, _, err := e.run(f, a.ctx, a.opts...)
				var qe *QueryError
				if !errors.As(err, &qe) || !errors.Is(err, a.want) {
					t.Fatalf("err = %v (%T), want a *QueryError wrapping %v", err, err, a.want)
				}
				assertNoLeaks(t, f.sys)
				f.sys.ClearFaults()
				got, _, err := e.run(f, context.Background(), Cold())
				if err != nil {
					t.Fatalf("run after the abort failed: %v", err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("run after the abort returned\n%+v\nwant the healthy run's\n%+v", got, want)
				}
				assertNoLeaks(t, f.sys)
			})
		}
	}
}

// TestStaticDegreePinsEveryEntryPoint: WithStaticDegree is applied where
// specs are built, so every operator runs — and reports — the pinned
// degree. 3 is off the optimizer's grid, so it cannot be its own choice.
func TestStaticDegreePinsEveryEntryPoint(t *testing.T) {
	fixtures := map[int]lifecycleFixture{}
	for _, e := range entryPoints {
		f, ok := fixtures[e.shards]
		if !ok {
			f = newLifecycleFixture(t, e.shards)
			fixtures[e.shards] = f
		}
		_, plans, err := e.run(f, context.Background(), WithStaticDegree(3))
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		for _, p := range plans {
			if p.Degree != 3 {
				t.Errorf("%s: reported plan %v has degree %d, want the pinned 3", e.name, p, p.Degree)
			}
		}
	}
}

// TestEveryEntryPointEmitsOneQueryPair: with the event log on, each entry
// point brackets its execution with exactly one query.start and one
// query.done, under one query id — the sharded group-by included.
func TestEveryEntryPointEmitsOneQueryPair(t *testing.T) {
	fixtures := map[int]lifecycleFixture{}
	for _, e := range entryPoints {
		f, ok := fixtures[e.shards]
		if !ok {
			f = newLifecycleFixture(t, e.shards)
			fixtures[e.shards] = f
		}
		f.sys.ResetEventLog()
		if _, _, err := e.run(f, context.Background(), Cold()); err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		var starts, dones []int64
		for _, ev := range f.sys.EngineEvents() {
			switch ev.Name {
			case "query.start":
				starts = append(starts, ev.Query)
			case "query.done":
				dones = append(dones, ev.Query)
			}
		}
		if len(starts) != 1 || len(dones) != 1 || starts[0] != dones[0] {
			t.Errorf("%s: query.start ids %v, query.done ids %v; want one pair under one id", e.name, starts, dones)
		}
		if st := f.sys.EventLogStats(); st.Dropped != 0 {
			t.Fatalf("%s: event ring wrapped (%d dropped); the count above is unreliable", e.name, st.Dropped)
		}
	}
}

// admissions collects the event log's admission.grant and lease.release
// events by query id.
func admissions(sys *System) (grants, releases map[int64][]EngineEvent) {
	grants, releases = map[int64][]EngineEvent{}, map[int64][]EngineEvent{}
	for _, e := range sys.EngineEvents() {
		switch e.Name {
		case "admission.grant":
			grants[e.Query] = append(grants[e.Query], e)
		case "lease.release":
			releases[e.Query] = append(releases[e.Query], e)
		}
	}
	return grants, releases
}

// TestEveryEntryPointIsAdmittedOnce: every entry point runs through the
// broker on a calibrated system. Alone on an idle broker, each run is
// granted exactly once — the unbounded grant 0, with no wait — and
// releases its lease exactly once. An uncalibrated system has no model and
// so no broker: a forced plan still runs there, unleased.
func TestEveryEntryPointIsAdmittedOnce(t *testing.T) {
	fixtures := map[int]lifecycleFixture{}
	for _, e := range entryPoints {
		f, ok := fixtures[e.shards]
		if !ok {
			f = newLifecycleFixture(t, e.shards)
			fixtures[e.shards] = f
		}
		f.sys.ResetEventLog()
		if _, _, err := e.run(f, context.Background(), Cold()); err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		qid := f.sys.nextQID - 1
		grants, releases := admissions(f.sys)
		if g := grants[qid]; len(g) != 1 || g[0].A != 0 || g[0].B != 0 {
			t.Errorf("%s: query %d grants %+v, want one unbounded grant (0) with no wait", e.name, qid, g)
		}
		if n := len(releases[qid]); n != 1 {
			t.Errorf("%s: query %d released %d leases, want 1", e.name, qid, n)
		}
		if st := f.sys.EventLogStats(); st.Dropped != 0 {
			t.Fatalf("%s: event ring wrapped (%d dropped); the counts above are unreliable", e.name, st.Dropped)
		}
		assertNoLeaks(t, f.sys)
	}

	sys := New(Config{Device: SSD, PoolPages: 1024})
	tab, err := sys.CreateTable("t", 30000, 33)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(context.Background(), Query{Table: tab, Low: 0, High: 9999}, WithPlan(Plan{Method: IndexScan, Degree: 8}))
	if err != nil || !res.Found || res.Rows == 0 {
		t.Fatalf("uncalibrated Run under WithPlan = %+v, %v; want an answer", res, err)
	}
	if sys.broker != nil {
		t.Error("an uncalibrated Run under WithPlan built a broker")
	}
	assertNoLeaks(t, sys)
}

// TestStandaloneQueryPlansAtDegradedSupply: under a ChannelLoss window a
// standalone query meets the broker like a session query — planned and
// leased at the degraded supply, not at the healthy depth — and still
// returns the healthy answer.
func TestStandaloneQueryPlansAtDegradedSupply(t *testing.T) {
	sys, tab := newCalibrated(t, SSD, 200000, 33)
	sys.EnableEventLog(1 << 16)
	q := Query{Table: tab, Low: 0, High: 499}
	healthy, err := sys.Run(context.Background(), q, Cold())
	if err != nil {
		t.Fatal(err)
	}
	if sys.broker == nil {
		t.Fatal("a standalone query on a calibrated system built no broker")
	}
	supply := (sys.broker.Total() + 1) / 2
	if int(healthy.Plan.depth) <= supply {
		t.Fatalf("setup: healthy plan %v priced at depth %d, within the degraded supply %d", healthy.Plan, healthy.Plan.depth, supply)
	}
	sys.InjectFaults(FaultSchedule{Windows: []FaultWindow{{ChannelLoss: 0.5}}})
	defer sys.ClearFaults()
	sys.ResetEventLog()
	res, err := sys.Run(context.Background(), q, Cold())
	if err != nil {
		t.Fatal(err)
	}
	grants, _ := admissions(sys)
	g := grants[sys.nextQID-1]
	if len(g) != 1 || g[0].A <= 0 || g[0].A > int64(supply) || g[0].A != int64(res.Plan.depth) {
		t.Errorf("degraded run ran %v (depth %d) under grants %+v; want one grant of its depth, within the supply %d",
			res.Plan, res.Plan.depth, g, supply)
	}
	if res.Value != healthy.Value || res.Found != healthy.Found || res.Rows != healthy.Rows {
		t.Errorf("degraded answer (%d, %v, %d rows), healthy (%d, %v, %d rows)",
			res.Value, res.Found, res.Rows, healthy.Value, healthy.Found, healthy.Rows)
	}
	assertNoLeaks(t, sys)
}

// TestStandaloneQueuesBehindPendingSubmissions: a standalone Execute issued
// while session submissions are pending enqueues behind them and is
// granted after them, in FIFO order; its Runtime runs from its grant, not
// from its enqueue, and its answer is the one it returns alone. The rerun
// is Cold(): its first run left its pages resident, and a query that reads
// nothing from the device needs no grant (TestResidentLookupSkipsTheQueue).
func TestStandaloneQueuesBehindPendingSubmissions(t *testing.T) {
	sys, tab := newCalibrated(t, SSD, 200000, 33)
	sys.EnableEventLog(1 << 16)
	q := Query{Table: tab, Low: 100000, High: 100499}
	alone, err := sys.Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	ses, err := sys.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	var subs []*Submission
	for _, lo := range []int64{0, 50000} {
		sub, err := ses.Submit(Query{Table: tab, Low: lo, High: lo + 499})
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
	}
	sys.ResetEventLog()
	res, err := sys.Run(context.Background(), q, Cold())
	if err != nil {
		t.Fatal(err)
	}
	if err := ses.Drain(); err != nil {
		t.Fatal(err)
	}
	for i, sub := range subs {
		if !sub.Done() {
			t.Errorf("submission %d not run by the standalone query's drain", i)
		}
	}
	qid := sys.nextQID - 1
	var order []int64
	var grant, done EngineEvent
	for _, e := range sys.EngineEvents() {
		switch {
		case e.Name == "admission.grant" && e.Query >= 0:
			order = append(order, e.Query)
			if e.Query == qid {
				grant = e
			}
		case e.Name == "query.done" && e.Query == qid:
			done = e
		}
	}
	if want := []int64{subs[0].qid, subs[1].qid, qid}; !reflect.DeepEqual(order, want) {
		t.Errorf("grants in order %v, want the submissions' then the standalone query's %v", order, want)
	}
	if grant.B <= 0 {
		t.Errorf("standalone query waited %v for its grant; want it queued behind the submissions", time.Duration(grant.B))
	}
	if res.Runtime != done.At-grant.At {
		t.Errorf("Runtime %v; granted at %v and done at %v, so %v without the wait",
			res.Runtime, grant.At, done.At, done.At-grant.At)
	}
	if res.Value != alone.Value || res.Rows != alone.Rows {
		t.Errorf("queued answer (%d, %d rows), alone (%d, %d rows)", res.Value, res.Rows, alone.Value, alone.Rows)
	}
	assertNoLeaks(t, sys)
}
