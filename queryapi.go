package pioqo

import (
	"cmp"
	"context"
	"fmt"
	"strings"
	"time"

	"pioqo/internal/broker"
	"pioqo/internal/buffer"
	"pioqo/internal/disk"
	"pioqo/internal/exec"
	"pioqo/internal/fault"
	"pioqo/internal/node"
	"pioqo/internal/obs"
	"pioqo/internal/sim"
)

// Request is one operation the engine runs: a Query, GroupByQuery,
// JoinQuery or UpdateQuery. The set is closed; each kind names what its
// operation plugs into the query lifecycle (request) and the body that
// plans it and hands back what its process runs (body). System.Run and
// Session.Submit run any of them, System.Plan plans any of them.
type Request interface {
	request() lifecycle
	body(r *queryRun, po PlanOptions) (planned, error)
}

// Run optimizes and runs req under ctx: the system's one way to run an
// operation standalone (Session.Submit is the other, for a stream). Every
// request kind plugs a body into the same query lifecycle (System.start):
// run by one process whose device reads the resource broker admits, then
// drained at once with every node's straggler hedgers armed (System.drain).
//
// The context is first-class: cancellation and deadlines propagate into
// virtual time and abort the query cleanly through every layer — workers
// exit at the next batch boundary, pinned pages are released, broker
// credits and pool reservations come home. A context deadline is mapped
// onto the virtual clock one-to-one (host time remaining becomes virtual
// time remaining); use WithTimeout for a purely virtual-time deadline that
// keeps runs byte-identical across hosts. An aborted query returns a
// *QueryError wrapping the taxonomy sentinel (ErrCanceled,
// ErrDeadlineExceeded, ErrDeviceFault), with Result.Rows the rows it had
// reached — for an update, the prefix it changed (see UpdateQuery).
//
// With Cold(), the buffer pool is flushed *before* planning: the optimizer
// consults pool residency statistics, and planning for a cache that is
// about to be dropped would mis-cost every candidate.
func (s *System) Run(ctx context.Context, req Request, opts ...QueryOption) (Result, error) {
	r, err := s.start(ctx, req, parseOptions(opts), false)
	if err != nil {
		return Result{}, err
	}
	r.res.PageReads, r.res.IOThroughputMBps = s.metered(s.drain)
	r.deliver()
	return r.result()
}

// lifecycle names what one request kind plugs into the query lifecycle.
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
	// computed by the request; it wraps ErrInvalidQuery.
	invalid error
}

// queryRun is one query's lifecycle state: what the head sets up once,
// what every spec built for the query shares, and what its process records.
type queryRun struct {
	s     *System
	op    string
	table string // the scanned table's name, for QueryError
	eo    queryOptions
	ctl   *fault.Control
	ts    *telemetrySession
	qid   int64
	pages int64 // live demand-fetch counter, every spec's Progress

	// b admits the query under lease; both are nil on an uncalibrated
	// system: no model, no credit supply. admitSpan is the trace's admit
	// phase, open until the grant.
	b         *broker.Broker
	lease     *broker.Lease
	admitSpan *obs.Span

	// shares, when set, counts the query as interest in file (share).
	shares *buffer.Shares
	file   disk.FileID

	// res is the query's Result: the reported plan shape, the answer the
	// body's run records and the Runtime its process reads.
	res       Result
	adm       Admission
	submitted sim.Time // when the query entered the lifecycle, and its process started
	est       int64    // the page estimate progress reads
	active    []int    // the shards a partitioned table's scans run on (scatter)
	started   bool
	done      bool
	err       error // the abort, once the process exits
}

// planned is what a body hands back: the reported plan, the queue depth it
// was priced at, and what the process runs (building its scans then, under
// the lease that gates their reads) — nil when every shard was pruned.
type planned struct {
	plan  Plan
	depth int
	run   func(p *sim.Proc)
}

func parseOptions(opts []QueryOption) queryOptions {
	var eo queryOptions
	for _, o := range opts {
		o(&eo)
	}
	return eo
}

// start is the one query body every request runs up to its process:
// every structural rejection (typed ErrInvalidQuery, in this one place),
// the abort control, the pre-plan cold flush, the query id, telemetry; the
// body's planning under the broker's fair share (0 for a sole query: it
// plans unbounded); the lease, asking for the user's QueueBudget or else
// the depth the plan was priced at (a shared-scan rider is admitted at once
// with zero credits: its producer owns the device work); and the process,
// which starts at once (its grant gates only its device reads).
// With atExit, telemetry is delivered as the process exits, else by the
// caller after the drain. Errors before the process exists are returned.
func (s *System) start(ctx context.Context, req Request, eo queryOptions, atExit bool) (*queryRun, error) {
	if req == nil {
		return nil, fmt.Errorf("%w: no request", ErrInvalidQuery)
	}
	lc := req.request()
	for _, t := range lc.tables {
		if t == nil {
			return nil, fmt.Errorf("%w: %s without a table", ErrInvalidQuery, lc.op)
		}
		if t.sharded() && !lc.scatter {
			return nil, fmt.Errorf("%w: table %q is partitioned across %d nodes; %s is single-node only",
				ErrInvalidQuery, t.Name(), len(t.parts), lc.op)
		}
	}
	if lc.invalid != nil {
		return nil, lc.invalid
	}
	r := &queryRun{s: s, op: lc.op, table: lc.tables[0].Name(), eo: eo, submitted: s.env.Now()}
	var err error
	if r.ctl, err = s.newControl(ctx, eo); err != nil {
		return nil, r.fail(err)
	}
	if eo.cold {
		s.FlushBufferPool()
	}
	r.qid = s.nextQID
	s.nextQID++
	r.ts = s.startTelemetry(lc.scan, eo)
	// sharedBroker's only error is a missing model: the query — a forced
	// plan — then runs unleased.
	r.b, _ = s.sharedBroker()
	po := eo.plan
	if r.b != nil && po.QueueBudget == 0 {
		po.QueueBudget = r.b.FairShare()
	}
	pl, err := req.body(r, po)
	if err != nil {
		r.leave()
		return nil, err
	}
	r.res.Plan = pl.plan
	if r.b != nil {
		r.lease = r.b.EnqueueQuery(cmp.Or(eo.plan.QueueBudget, pl.depth), r.qid)
		if pl.plan.Shared {
			r.b.AdmitShared(r.lease)
			r.adm.Shared = true
		}
	}
	s.env.Go(lc.op, func(p *sim.Proc) { r.process(p, lc.scan, pl.run, atExit) })
	return r, nil
}

// process is the query's process. It starts at submit, not at its grant:
// the executor waits on the lease (exec.Governor) only where it would issue
// a device read, so a query whose pages are resident, or being read for
// another query, runs without waiting its turn. It emits query.start, runs
// what the body planned and exits — query.done and the query span read the
// clock there — and returns the lease and the scan-sharing interest on
// every path. Admission.Wait is the submit-to-grant time of a query that
// passed its gate and Runtime excludes it, so the two sum to the query's
// submit-to-done time.
func (r *queryRun) process(p *sim.Proc, scan Query, run func(*sim.Proc), atExit bool) {
	defer r.leave()
	if r.ts == nil {
		// A listener installed after a session query was submitted still
		// hears it: its trace starts here.
		r.ts = r.s.startTelemetry(scan, r.eo)
	}
	r.traceAdmission()
	r.est = estimatePages(scan, &r.res.Plan, r.active)
	r.started = true
	budget := 0 // the grant, when it came before the start
	if r.lease != nil {
		budget = r.lease.Budget()
	}
	r.s.reg.Emit(obs.EvQueryStart, r.qid, r.est, int64(budget))
	if run != nil {
		run(p)
	}
	r.recordAdmission()
	r.res.Runtime = time.Duration(p.Now()-r.submitted) - r.adm.Wait
	r.s.reg.Emit(obs.EvQueryDone, r.qid, r.pages, int64(r.res.Runtime))
	r.ts.span().End()
	r.done = true
	if cause := r.ctl.Err(); cause != nil {
		r.err = r.fail(cause)
	}
	if atExit {
		r.deliver()
	}
}

// traceAdmission opens the query's admit span. It ends at the grant — at
// once for a query granted before it started — or, for a query that
// finishes without one, at its exit, where recordAdmission annotates it.
func (r *queryRun) traceAdmission() {
	if r.lease == nil || r.ts == nil {
		return
	}
	r.admitSpan = r.ts.trc().Start(r.ts.span(), "admit")
	r.lease.OnAdmit(r.admitSpan.End)
}

// recordAdmission fills the query's admission record as it exits: the
// lease's budget and pool reservation once granted, and the submit-to-grant
// wait once the query passed its gate. A query that never needed the device
// — its pages resident, or read for other queries — reports no wait,
// however long its lease queued.
func (r *queryRun) recordAdmission() {
	if r.lease == nil {
		return
	}
	if r.lease.Admitted() {
		r.adm.Budget = r.lease.Budget()
		r.adm.PoolPages = r.lease.PoolPages()
		if r.lease.Gated() {
			r.adm.Wait = time.Duration(r.lease.Wait())
		}
	}
	if span := r.admitSpan; span != nil {
		span.SetAttr("budget", r.adm.Budget)
		span.SetAttr("wait", r.adm.Wait)
		span.End()
	}
}

// leave returns what the query holds while it runs: its scan-sharing
// interest and its lease.
func (r *queryRun) leave() {
	if r.shares != nil {
		r.shares.DropInterest(r.file)
	}
	if r.lease != nil {
		r.lease.Release()
	}
}

// deliver hands the query's telemetry to its listeners and drops the trace.
func (r *queryRun) deliver() {
	r.ts.finish(r.s, r.res.Plan, r.res.Runtime, r.eo)
	r.ts = nil
}

// drain is the one drain Run and Session.Drain share: it runs the
// simulation, with every node's straggler hedgers armed, until every
// started query has finished and what they left behind — a losing hedge
// copy, an injected straggler's delay, an expired hedge timer — has too, so
// the next query starts on a quiet device. It ends on the reclamation
// invariant: with no query still admitted, every ledger leaks reads is back
// at zero, aborted queries included.
func (s *System) drain() {
	s.setHedgers(true)
	s.env.Run()
	s.setHedgers(false)
	if s.broker != nil && s.broker.Active() != 0 {
		return
	}
	if l := s.leaks(); l != nil {
		panic("pioqo: drain leaked " + strings.Join(l, ", "))
	}
}

// leaks lists every ledger of a drained system that is not at zero: live
// simulation processes, device requests in flight, buffer pins, open page
// intents, the queries parked on them and racing hedge records on every
// node, consumers attached to a circulating scan, and the broker's credits
// and reserved pool pages. It returns nil when all are.
func (s *System) leaks() (l []string) {
	if n := s.env.LiveProcs(); n != 0 {
		l = append(l, fmt.Sprintf("%d simulation processes", n))
	}
	for _, n := range s.nodes {
		if out := n.Dev.Metrics().Outstanding(); out != 0 {
			l = append(l, fmt.Sprintf("%d device requests outstanding on node %d", out, n.ID))
		}
		if pins := n.Pool.Pinned(); pins != 0 {
			l = append(l, fmt.Sprintf("%d buffer pins on node %d", pins, n.ID))
		}
		if in := n.Pool.Intents(); in != 0 {
			l = append(l, fmt.Sprintf("%d page intents open on node %d", in, n.ID))
		}
		if w := n.Pool.Parked(); w != 0 {
			l = append(l, fmt.Sprintf("%d queries parked on page intents on node %d", w, n.ID))
		}
		if n.Hedge != nil && n.Hedge.Races() != 0 {
			l = append(l, fmt.Sprintf("%d hedge records racing on node %d", n.Hedge.Races(), n.ID))
		}
	}
	if sh := s.coord().Shares; sh != nil && sh.Live() != 0 {
		l = append(l, fmt.Sprintf("%d circulating-scan riders", sh.Live()))
	}
	if b := s.broker; b != nil && b.InUse() != 0 {
		l = append(l, fmt.Sprintf("%d broker credits", b.InUse()))
	}
	if b := s.broker; b != nil && b.PoolInUse() != 0 {
		l = append(l, fmt.Sprintf("%d reserved pool pages", b.PoolInUse()))
	}
	return l
}

// metered runs drain in a metering window — every node's device meters and
// pool statistics reset before it — and reads the window summed over the
// nodes: the device requests issued, and the throughput they sustained over
// the longest node's window.
func (s *System) metered(drain func()) (requests int64, mbps float64) {
	for _, n := range s.nodes {
		n.Dev.Metrics().Reset()
		n.Pool.ResetStats()
	}
	drain()
	var bytes int64
	var elapsed sim.Duration
	for _, n := range s.nodes {
		io := n.Dev.Metrics().Snapshot()
		requests += io.Requests
		bytes += io.Bytes
		elapsed = max(elapsed, io.Elapsed)
	}
	if elapsed > 0 {
		mbps = float64(bytes) / 1e6 / elapsed.Seconds()
	}
	return requests, mbps
}

// result is the query's Result, or — after an abort — its error with only
// the rows the body had reached.
func (r *queryRun) result() (Result, error) {
	if r.err != nil {
		return Result{Rows: r.res.Rows}, r.err
	}
	return r.res, nil
}

// fail wraps an abort cause in the query's typed error.
func (r *queryRun) fail(cause error) error {
	return &QueryError{Op: r.op, Table: r.table, Err: cause}
}

// optimize plans q under po, inside the telemetry session's optimize span —
// or takes the caller's WithPlan plan, which needs an index unless it scans
// the whole table.
func (r *queryRun) optimize(q Query, po PlanOptions) (Plan, error) {
	if f := r.eo.forced; f != nil {
		if f.Method != FullTableScan && !q.Table.Indexed() {
			return Plan{}, fmt.Errorf("%w: table %q has no index", ErrInvalidQuery, q.Table.Name())
		}
		return *f, nil
	}
	span := r.ts.trc().Start(r.ts.span(), "optimize")
	plan, err := r.s.planScan(q, po)
	if err != nil {
		return Plan{}, err
	}
	if span != nil { // formatting allocates: only for a listener
		span.SetAttr("plan", plan.String())
	}
	span.End()
	return plan, nil
}

// rangeScan is the body of an operation over the rows one range scan
// locates: scan planned under po (or forced), then run under that plan —
// on the table's own node, or, when the table is partitioned, handed the
// scans of its active shards (none runs when every shard was pruned).
func (r *queryRun) rangeScan(scan Query, po PlanOptions, run func(p *sim.Proc, plan *Plan, shards []exec.ShardScan)) (planned, error) {
	plan, err := r.optimize(scan, po)
	if err != nil {
		return planned{}, err
	}
	if !scan.Table.sharded() {
		r.pin(&plan)
		return planned{plan, int(plan.depth), func(p *sim.Proc) { run(p, &plan, nil) }}, nil
	}
	active := r.scatter(scan, &plan)
	if len(active) == 0 {
		return planned{plan: plan}, nil
	}
	return planned{plan, int(plan.depth), func(p *sim.Proc) { run(p, &plan, r.scans(scan, plan, active)) }}, nil
}

// share counts the query as scan-sharing interest in part's heap while it
// runs, when part's node hosts circulating scans: every such query is a
// potential rider, so a full scan planned now prices the attach path
// against everyone in flight. It returns the share parties to plan for:
// the caller's when set, else the live interest quantized so the plan memo
// caches a few contention levels (a sole query's 1 quantizes to 0).
func (r *queryRun) share(part *tablePart, parties int) int {
	if part.node.Shares == nil || r.eo.noShare {
		return parties
	}
	r.shares, r.file = part.node.Shares, part.tab.File().ID()
	r.shares.AddInterest(r.file)
	if parties == 0 {
		parties = quantizeParties(r.shares.Interest(r.file))
	}
	return parties
}

// quantizeParties buckets a live interest count into the share-party sizes
// the optimizer plans for: 0 (no sharing), 2, 4, or 8+.
func quantizeParties(n int) int {
	switch {
	case n < 2:
		return 0
	case n < 4:
		return 2
	case n < 8:
		return 4
	default:
		return 8
	}
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

// spec is the one place a plan becomes an executable scan, built by every
// body as its process runs: q's range and aggregate over one table part
// under plan (layered on opt.Plan.Spec), with the query's degree and
// prefetch pins, span, abort control, retry policy, id, progress counter
// and lease (Gov: the gate on its device reads, and its pool reservation)
// wired in. With other queries
// interested in the same heap, a private scan's readahead trims the pages a
// neighbour (or the circulating producer) already covered. Operator hooks
// (Emit, Update) are the caller's to add.
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
	if r.lease != nil {
		spec.Gov = r.lease
	}
	if r.shares != nil && !plan.Shared && r.shares.Interest(r.file) > 1 {
		spec.CoordPrefetch = true
	}
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

// QueryOption tunes a query execution. One option set serves every request
// kind, under System.Run and Session.Submit alike, because both parse it in
// one place and build their scans in one place (queryRun.spec).
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

// WithPlan runs the scan that locates a Query's, GroupByQuery's or
// UpdateQuery's rows under p instead of the optimizer's choice (a join
// rejects it). On an uncalibrated system a forced plan runs unleased.
func WithPlan(p Plan) QueryOption { return func(o *queryOptions) { o.forced = &p } }

// WithStaticDegree pins the query's parallel degree to n, overriding the
// optimizer's choice. Cost estimates are reported unchanged.
func WithStaticDegree(n int) QueryOption { return func(o *queryOptions) { o.degree = n } }

// WithAdaptive does nothing: a query runs the degree its plan priced.
//
// Deprecated: there is no runtime degree controller to ask for. Kept for
// the frozen bench/ suite.
func WithAdaptive() QueryOption { return func(*queryOptions) {} }

// WithRetry sets the query's device-fault retry policy.
func WithRetry(p RetryPolicy) QueryOption { return func(o *queryOptions) { o.retry = p } }

// WithTrace records the query's telemetry into dst — span tree and
// attributed metrics — without installing a system-wide observer.
func WithTrace(dst *QueryTelemetry) QueryOption {
	return func(o *queryOptions) { o.telemetry = dst }
}
