package pioqo

import (
	"context"
	"fmt"
	"time"

	"pioqo/internal/device"
	"pioqo/internal/exec"
	"pioqo/internal/fault"
	"pioqo/internal/node"
	"pioqo/internal/obs"
	"pioqo/internal/sim"
)

// Query is the system's single execution entrypoint: it optimizes and runs
// q under ctx. Every other entrypoint (Execute, ExecutePlan, ExecuteGroupBy,
// ExecuteJoin, Update) plugs a different body into the same lifecycle —
// System.run — and Session.Submit shares its head and its spec builder.
//
// The context is first-class: cancellation and deadlines propagate into
// virtual time and abort the query cleanly through every layer — workers
// exit at the next batch boundary, pinned pages are released, broker
// credits and pool reservations come home. A context deadline is mapped
// onto the virtual clock one-to-one (host time remaining becomes virtual
// time remaining); use WithTimeout for a purely virtual-time deadline that
// keeps runs byte-identical across hosts. An aborted query returns a
// *QueryError wrapping the taxonomy sentinel (ErrCanceled,
// ErrDeadlineExceeded, ErrDeviceFault).
//
// With Cold(), the buffer pool is flushed *before* planning: the optimizer
// consults pool residency statistics, and planning for a cache that is
// about to be dropped would mis-cost every candidate.
func (s *System) Query(ctx context.Context, q Query, opts ...QueryOption) (Result, error) {
	return s.scalar(ctx, q, opts, func(r *queryRun) (Plan, error) { return r.optimize(q) })
}

// lifecycle names what one entry point plugs into the query lifecycle.
type lifecycle struct {
	op string // QueryError.Op, and the name of the query's process

	// scan is the range scan that locates the operation's rows (the build
	// side of a join): what telemetry describes and progress is estimated
	// from.
	scan Query

	// tables lists every table the operation touches. A nil entry is
	// invalid, and so is a sharded one unless scatter says the body runs
	// partitioned tables scatter-gather.
	tables  []*Table
	scatter bool

	// invalid, when set, is the operation's own structural rejection,
	// computed by the entry point; it wraps ErrInvalidQuery.
	invalid error
}

// queryRun is one query's lifecycle state: what the head sets up once and
// every spec built for the query shares.
type queryRun struct {
	s     *System
	op    string
	table string // the scanned table's name, for QueryError
	eo    queryOptions
	ctl   *fault.Control
	ts    *telemetrySession
	qid   int64
	pages int64 // live demand-fetch counter, every spec's Progress
}

// planned is what a body hands back once it has planned: the reported plan
// shape, the nodes whose stacks the run touches (metered and hedged over
// exactly the run), and what the query's process executes — nil when there
// is nothing to run (every shard pruned).
type planned struct {
	plan  Plan
	nodes []*node.Node
	proc  func(p *sim.Proc)
}

// outcome is what the lifecycle reports back to the entry point shaping the
// result: the executed plan, the virtual wall-clock time, and the device
// traffic summed over the nodes involved.
type outcome struct {
	plan    Plan
	runtime time.Duration
	io      device.Summary
}

func parseOptions(opts []QueryOption) queryOptions {
	var eo queryOptions
	for _, o := range opts {
		o(&eo)
	}
	return eo
}

// begin is the lifecycle's head, shared by run and Session.submit: every
// structural rejection (typed ErrInvalidQuery, in this one place), the
// abort control, the pre-plan cold flush, and the query id.
func (s *System) begin(ctx context.Context, lc lifecycle, eo queryOptions) (*queryRun, error) {
	for _, t := range lc.tables {
		if t == nil {
			return nil, fmt.Errorf("%w: %s without a table", ErrInvalidQuery, lc.op)
		}
		if t.sharded() && !lc.scatter {
			return nil, fmt.Errorf("%w: table %q is partitioned across %d nodes; %s is single-node only",
				ErrInvalidQuery, t.Name(), len(t.parts), lc.op)
		}
	}
	if err := eo.checkAdaptive(); err != nil {
		return nil, err
	}
	if lc.invalid != nil {
		return nil, lc.invalid
	}
	r := &queryRun{s: s, op: lc.op, table: lc.tables[0].Name(), eo: eo}
	var err error
	if r.ctl, err = s.newControl(ctx, eo); err != nil {
		return nil, r.fail(err)
	}
	if eo.cold {
		s.FlushBufferPool()
	}
	r.qid = s.nextQID
	s.nextQID++
	return r, nil
}

// run is the one bracket every standalone execution goes through: head
// (begin), telemetry session, the body's planning, query.start, meters
// reset and hedgers armed on the nodes involved, one process — whose exit
// is the query's end: Runtime, query.done and the query span — and one
// env.Run that drains what the process left in flight, telemetry delivery,
// and the abort cause — whatever tripped the query's control — wrapped in a
// *QueryError. Errors before the process starts (validation, planning) are
// returned as they are.
func (s *System) run(ctx context.Context, lc lifecycle, opts []QueryOption, body func(*queryRun) (planned, error)) (outcome, error) {
	r, err := s.begin(ctx, lc, parseOptions(opts))
	if err != nil {
		return outcome{}, err
	}
	r.ts = s.startTelemetry(lc.scan, r.eo)
	pl, err := body(r)
	if err != nil {
		return outcome{}, err
	}
	s.reg.Emit(obs.EvQueryStart, r.qid, estimatePages(lc.scan, pl.plan), int64(r.eo.plan.QueueBudget))
	for _, n := range pl.nodes {
		n.Dev.Metrics().Reset()
		n.Pool.ResetStats()
	}
	// Hedging is armed only for the run's window on the nodes it touches:
	// calibration and other traffic never see speculative duplicates.
	s.armHedgers(pl.nodes)
	start := s.env.Now()
	out := outcome{plan: pl.plan}
	if pl.proc != nil {
		s.env.Go(lc.op, func(p *sim.Proc) {
			pl.proc(p)
			out.runtime = r.exit(start)
		})
		// The query ended when its process did; the drain lets what it left
		// behind — a losing hedge copy, an injected straggler's delay, an
		// expired hedge timer — finish off the clock, so every ledger is
		// zero at return and the next query starts on a quiet device.
		s.env.Run()
	} else {
		out.runtime = r.exit(start)
	}
	s.disarmHedgers(pl.nodes)
	for _, n := range pl.nodes {
		io := n.Dev.Metrics().Snapshot()
		out.io.Requests += io.Requests
		out.io.Bytes += io.Bytes
		out.io.Elapsed = max(out.io.Elapsed, io.Elapsed)
	}
	if out.io.Elapsed > 0 {
		out.io.ThroughputMBps = float64(out.io.Bytes) / 1e6 / out.io.Elapsed.Seconds()
	}
	r.ts.finish(s, pl.plan, out.runtime, r.eo)
	if cause := r.ctl.Err(); cause != nil {
		return outcome{}, r.fail(cause)
	}
	return out, nil
}

// exit marks the query's end at the virtual instant its process returns:
// Runtime, query.done and the query span all read that one clock, on every
// entry point (run's wrapped process and Session.submit's alike).
func (r *queryRun) exit(start sim.Time) time.Duration {
	rt := time.Duration(r.s.env.Now() - start)
	r.s.reg.Emit(obs.EvQueryDone, r.qid, r.pages, int64(rt))
	r.ts.span().End()
	return rt
}

// fail wraps an abort cause in the query's typed error.
func (r *queryRun) fail(cause error) error {
	return &QueryError{Op: r.op, Table: r.table, Err: cause}
}

// optimize plans q under the query's plan options, inside the telemetry
// session's optimize span.
func (r *queryRun) optimize(q Query) (Plan, error) {
	span := r.ts.trc().Start(r.ts.span(), "optimize")
	plan, err := r.s.Plan(q, r.eo.plan)
	if err != nil {
		return Plan{}, err
	}
	span.SetAttr("plan", plan.String())
	span.End()
	return plan, nil
}

// pin applies the query's static degree to a plan's reported shape.
func (r *queryRun) pin(plan *Plan) {
	if r.eo.degree > 0 {
		plan.Degree = r.eo.degree
	}
	if plan.Degree <= 0 {
		plan.Degree = 1
	}
}

// context is n's executor context under the query's tracer.
func (r *queryRun) context(n *node.Node) *exec.Context {
	ctx := r.s.nodeContext(n)
	ctx.Tracer = r.ts.trc()
	return ctx
}

// spec is the one place a plan becomes an executable scan: q's range and
// aggregate over one table part under plan (layered on opt.Plan.Spec), with
// the query's degree and prefetch pins applied and its span, abort
// control, retry policy, id and progress counter wired in. The standalone
// bodies, each shard of a gather and the session's post-admission body all
// build their scans here; operator hooks (Emit, Update) and the lease
// (Gov, PoolShare) are the caller's to add.
func (r *queryRun) spec(part *tablePart, q Query, plan *Plan) exec.Spec {
	r.pin(plan)
	spec := plan.internal().Spec(part.input(q))
	spec.Agg = q.Agg.internal()
	if r.eo.prefetch != 0 {
		spec.PrefetchPerWorker = r.eo.prefetch
	}
	spec.Span = r.ts.span()
	spec.Ctl = r.ctl
	spec.Retry = r.eo.retry.internal()
	spec.QID = r.qid
	spec.Progress = &r.pages
	return spec
}

// newControl builds the per-query abort control from the caller's context
// and options. A context already canceled or past its deadline fails fast
// with the mapped taxonomy error. The control is inert when no abort
// source is installed — checking it adds no events and no randomness, so a
// deadline-free query runs byte-identically with or without it.
func (s *System) newControl(ctx context.Context, eo queryOptions) (*fault.Control, error) {
	if err := ctx.Err(); err != nil {
		return nil, fault.MapContextErr(err)
	}
	ctl := fault.NewControl(s.env)
	if eo.timeout > 0 {
		ctl.SetDeadline(s.env.Now().Add(sim.Duration(eo.timeout)))
	}
	if dl, ok := ctx.Deadline(); ok {
		rem := time.Until(dl)
		if rem <= 0 {
			return nil, fault.ErrDeadlineExceeded
		}
		// Host time remaining maps one-to-one onto the virtual clock: a
		// query that would outlive its context's deadline aborts at the
		// equivalent virtual instant.
		vdl := s.env.Now().Add(sim.Duration(rem))
		ctl.SetDeadline(vdl)
	}
	if ctx.Done() != nil {
		// Live cancellation: the executor polls ctx.Err at every batch
		// boundary, so a host-side cancel lands within one batch.
		ctl.SetPoll(ctx.Err)
	}
	return ctl, nil
}

// QueryOption tunes a query execution. One option set serves every
// entrypoint — Query, Execute, ExecutePlan, ExecuteGroupBy, ExecuteJoin,
// Update, ExecuteConcurrent, and Session.Submit — because all of them parse
// it in one place and build their scans in one place (queryRun.spec).
type QueryOption func(*queryOptions)

// RetryPolicy bounds how the executor responds to device read faults: a
// failed page read is retried up to MaxAttempts total attempts with
// exponential backoff in virtual time (Backoff doubling per retry, capped
// at MaxBackoff). Zero fields take the defaults: 4 attempts, 200µs initial
// backoff, 10ms cap. Backoffs carry no jitter, so fault-injected runs
// replay byte-identically.
type RetryPolicy struct {
	MaxAttempts int
	Backoff     time.Duration
	MaxBackoff  time.Duration
}

func (p RetryPolicy) internal() fault.RetryPolicy {
	return fault.RetryPolicy{
		MaxAttempts: p.MaxAttempts,
		Backoff:     sim.Duration(p.Backoff),
		MaxBackoff:  sim.Duration(p.MaxBackoff),
	}
}

// WithTimeout arms a virtual-time deadline: the query aborts with
// ErrDeadlineExceeded once d of virtual time has elapsed, at its next
// batch boundary. Unlike a context deadline, a virtual-time timeout is
// deterministic — the same run aborts at the same virtual instant on any
// host.
func WithTimeout(d time.Duration) QueryOption { return func(o *queryOptions) { o.timeout = d } }

// WithRetry sets the query's device-fault retry policy.
func WithRetry(p RetryPolicy) QueryOption { return func(o *queryOptions) { o.retry = p } }

// WithTrace records the query's telemetry into dst — span tree and
// attributed metrics — without installing a system-wide observer.
func WithTrace(dst *QueryTelemetry) QueryOption {
	return func(o *queryOptions) { o.telemetry = dst }
}
