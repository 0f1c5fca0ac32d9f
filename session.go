package pioqo

import (
	"context"
	"errors"
	"fmt"
	"time"

	"pioqo/internal/broker"
	"pioqo/internal/buffer"
	"pioqo/internal/exec"
	"pioqo/internal/obs"
	"pioqo/internal/sim"
)

// Admission reports how the resource broker treated one submitted query.
type Admission struct {
	// Budget is the queue-depth budget the query executed under — its lease
	// from the broker: the depth its plan was priced at, capped at the
	// supply. Zero means unbounded: the query was alone on an idle device
	// and planned exactly as Execute would.
	Budget int

	// PoolPages is the buffer-pool page reservation attached to the lease
	// (0 = ungoverned, the whole pool).
	PoolPages int

	// Wait is the virtual time the query spent in the admission queue
	// before the broker granted its lease.
	Wait time.Duration

	// Shared reports that the query rode a circulating scan: it was
	// admitted immediately with zero queue-depth credits, since the shared
	// producer — not this query — issues the device work.
	Shared bool
}

// Submission is one query's handle in a Session: submit-time state before
// Drain, the result and its admission record after.
type Submission struct {
	// queryRun is the query's lifecycle state — options, abort control, the
	// engine-assigned query id, and pages, the executor's live fetch
	// counter Progress reads.
	*queryRun
	q Query

	// est is the plan's page-pin estimate fixed at admission, the other
	// half of Progress.
	est     int64
	started bool

	adm  Admission
	res  Result
	err  error
	done bool
}

// Done reports whether the query has finished executing (after the Drain
// that covers it).
func (sub *Submission) Done() bool { return sub.done }

// Result returns the query's result. Calling it before the session has
// been drained past this submission is an error.
func (sub *Submission) Result() (Result, error) {
	if sub.err != nil {
		return Result{}, sub.err
	}
	if !sub.done {
		return Result{}, errors.New("pioqo: submission not executed; call Session.Drain first")
	}
	return sub.res, nil
}

// Admission returns the broker's admission record for the query. Valid
// once the submission is Done.
func (sub *Submission) Admission() Admission { return sub.adm }

// Session is an admission-controlled stream of queries sharing the
// system's resource broker. Each Submit enqueues a query for admission and
// registers its executor; Drain runs the simulation until every submitted
// query has finished. Unlike ExecuteConcurrent's closed batches, a session
// is open-ended: submit, drain, inspect, submit more.
//
// A query in a session is planned once, at submit time, under the broker's
// fair-share expectation, and leased exactly the queue depth that plan was
// priced at, so it runs the plan it was submitted with. A query submitted
// to an idle session receives an unbounded lease and plans exactly as a
// standalone Execute would.
type Session struct {
	sys    *System
	b      *broker.Broker
	subs   []*Submission // submissions not yet drained
	n      int           // session-lifetime submission counter (proc names)
	closed bool
}

// Close stops admission: subsequent Submits fail with ErrAdmissionClosed.
// Already-submitted queries are unaffected — Drain still runs them.
func (ses *Session) Close() { ses.closed = true }

// OpenSession starts a session on the system's shared resource broker.
// Requires calibration: the broker's credit supply is the calibrated
// device's maximum beneficial queue depth.
func (s *System) OpenSession() (*Session, error) {
	b, err := s.sharedBroker()
	if err != nil {
		return nil, err
	}
	return &Session{sys: s, b: b}, nil
}

// Submit enqueues q for admission-controlled execution on the default
// session, opening it on first use. Drain runs the submitted queries.
func (s *System) Submit(q Query, opts ...QueryOption) (*Submission, error) {
	if s.session == nil {
		ses, err := s.OpenSession()
		if err != nil {
			return nil, err
		}
		s.session = ses
	}
	return s.session.Submit(q, opts...)
}

// Drain runs the default session's pending queries to completion (no-op
// when nothing was submitted).
func (s *System) Drain() error {
	if s.session == nil {
		return nil
	}
	return s.session.Drain()
}

// sharedBroker returns the system's resource broker, building it from the
// calibrated model on first use and hooking the coordinator's circulating
// producers into it. Installing a new model drops both, so the credit
// supply always reflects the current calibration.
func (s *System) sharedBroker() (*broker.Broker, error) {
	if s.model == nil {
		return nil, fmt.Errorf("%w: resource brokering needs the calibrated queue-depth supply; call Calibrate first", ErrNotCalibrated)
	}
	if s.broker == nil {
		n0 := s.coord()
		cfg := broker.Config{
			Env:        s.env,
			Model:      s.model,
			Band:       s.DevicePages(),
			PoolPages:  n0.Pool.Capacity(),
			Workers:    s.cores,
			DepthProbe: n0.Dev.Metrics().DepthIntegral,
			Obs:        s.reg,
		}
		if !s.noDegrade {
			// Under an active ChannelLoss fault window the broker shrinks
			// its credit supply, so queries submitted meanwhile plan at a
			// queue depth the degraded device can still absorb. Probe reads
			// injector state only — no events, no randomness.
			cfg.DegradeProbe = n0.Inj.Degradation
		}
		s.broker = broker.New(cfg)
		n0.Broker = s.broker
		if n0.Shares != nil {
			// A circulating producer is the device consumer its riders are
			// not: it leases readahead+1 credits in FIFO turn beside the
			// queries and reads no deeper than its grant, so block reads
			// never stack on top of the depth the queries hold.
			b := s.broker
			n0.Shares.SetLeaser(func(demand int) buffer.DepthLease { return b.Enqueue(demand) })
		}
	}
	return s.broker, nil
}

// Submit validates q, plans it under the broker's current fair share,
// enqueues it for admission asking for the queue depth that plan was priced
// at, and registers its executor process. The query
// runs during the next Drain. With Cold(), the buffer pool is flushed now —
// before planning, as in Execute.
func (ses *Session) Submit(q Query, opts ...QueryOption) (*Submission, error) {
	if ses.closed {
		return nil, fmt.Errorf("%w: session closed", ErrAdmissionClosed)
	}
	return ses.submit(q, parseOptions(opts))
}

// submit is the option-parsed core of Submit (ExecuteConcurrent enters
// here with the batch's one option set). It shares the standalone
// lifecycle's head — validation, abort control, cold flush, query id — and
// its spec builder; in between sits what only a session has: admission.
func (ses *Session) submit(q Query, eo queryOptions) (*Submission, error) {
	s := ses.sys
	r, err := s.begin(context.Background(), lifecycle{op: "submit", tables: []*Table{q.Table}}, eo)
	if err != nil {
		return nil, err
	}
	sub := &Submission{queryRun: r, q: q}

	// The query is planned once, here, under the fair share a query joining
	// now could expect. A user-set QueueBudget wins over it.
	po := eo.plan
	if po.QueueBudget == 0 {
		po.QueueBudget = ses.b.FairShare()
	}

	// Scan-sharing interest: every sharing-eligible query on the table
	// counts as a potential rider, so a full scan submitted now prices the
	// attach path against everyone already in flight. Interest is dropped
	// when the query's process finishes; the parties count is quantized so
	// the plan memo caches a handful of contention levels, not one
	// enumeration per exact rider count.
	part := q.Table.one()
	shares := part.node.Shares
	sharing := shares != nil && !eo.noShare
	file := part.tab.File().ID()
	if sharing {
		shares.AddInterest(file)
		if po.ShareParties == 0 {
			po.ShareParties = quantizeParties(shares.Interest(file))
		}
	}

	plan, err := s.Plan(q, po)
	if err != nil {
		if sharing {
			shares.DropInterest(file)
		}
		return nil, err
	}
	// The lease asks for the user's QueueBudget when set, else the depth the
	// plan was priced at — a serial point lookup asks for one credit, not a
	// share of the supply — and dispatch grants it whole, so the query runs
	// the plan it was submitted with. An adaptive query's controller grows
	// its fleet past that through the lease mid-flight.
	demand := eo.plan.QueueBudget
	if demand == 0 {
		demand = int(plan.depth)
	}
	lease := ses.b.EnqueueQuery(demand, r.qid)
	if plan.Shared {
		// The rider issues no demand reads — the circulating producer owns
		// the device work — so waiting for queue-depth credits would gate
		// it on capacity it will not consume. Admit it out of turn with a
		// zero-credit lease.
		ses.b.AdmitShared(lease)
		sub.adm.Shared = true
	}

	id := ses.n
	ses.n++
	ses.subs = append(ses.subs, sub)
	s.env.Go(fmt.Sprintf("session-q%d", id), func(p *sim.Proc) {
		// The deferred Release reclaims the lease on every exit path —
		// errors between admission and first worker start included — so
		// credits and pool reservations never leak from aborted queries.
		defer lease.Release()
		if sharing {
			defer shares.DropInterest(file)
		}
		// The trace lives as long as the process, not as long as the
		// caller keeps the Submission.
		r.ts = s.startTelemetry(q, eo)
		defer func() { r.ts = nil }()
		aspan := r.ts.trc().Start(r.ts.span(), "admit")
		lease.Await(p)
		if err := r.ctl.Err(); err != nil {
			sub.err = r.fail(err)
			aspan.SetAttr("err", err.Error())
			aspan.End()
			return
		}
		granted := lease.Budget()
		sub.adm.Budget = granted
		sub.adm.PoolPages = lease.PoolPages()
		sub.adm.Wait = time.Duration(lease.Wait())
		aspan.SetAttr("budget", granted)
		aspan.SetAttr("wait", sub.adm.Wait)
		aspan.End()
		sub.est = estimatePages(q, plan)
		sub.started = true
		s.reg.Emit(obs.EvQueryStart, r.qid, sub.est, int64(granted))

		spec := r.spec(part, q, &plan)
		spec.Gov = lease
		spec.PoolShare = lease.PoolPages()
		// With other queries interested in the same file, a private scan's
		// readahead trims the pages a neighbour (or the circulating
		// producer) already covered instead of re-requesting them.
		if sharing && !plan.Shared && shares.Interest(file) > 1 {
			spec.CoordPrefetch = true
		}
		// Adaptive submissions retune through their own lease: every degree
		// the controller grows to is secured by re-leasing free credits
		// mid-flight, and shed workers return credits through the governed
		// teardown the broker already runs for static queries.
		s.attachAdaptive(&spec, q, plan, eo, lease, ses.b.Total())
		t0 := p.Now()
		res := exec.RunScan(p, r.context(part.node), spec)
		rt := r.exit(t0)
		sub.done = true
		r.ts.finish(s, plan, rt, eo)
		if res.Err != nil {
			sub.err = r.fail(res.Err)
			return
		}
		sub.res = Result{
			Value:   res.Value,
			Found:   res.Found,
			Rows:    res.RowsMatched,
			Plan:    plan,
			Runtime: rt,
		}
	})
	return sub, nil
}

// quantizeParties buckets a live interest count into the share-party sizes
// the optimizer plans for: 0 (no sharing), 2, 4, or 8+. The exact rider
// count moves with every submit; pricing against a handful of contention
// levels keeps the plan memo warm across a thousand-query burst.
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

// Cancel aborts the submission's query with ErrCanceled (or keeps an
// earlier abort cause). Safe before or during Drain; the query's workers
// exit at their next batch boundary and its lease is reclaimed.
func (sub *Submission) Cancel() { sub.ctl.Cancel(ErrCanceled) }

// Drain runs the simulation until every pending submission has finished,
// returning the first submission error (results remain retrievable per
// submission either way).
func (ses *Session) Drain() error {
	ses.sys.env.Run()
	var first error
	for _, sub := range ses.subs {
		if sub.err != nil && first == nil {
			first = sub.err
		}
	}
	ses.subs = ses.subs[:0]
	// Reclamation invariant: with no query still admitted, every credit and
	// every pool reservation must have come home — aborted queries included.
	if ses.b.Active() == 0 {
		if n := ses.b.InUse(); n != 0 {
			panic(fmt.Sprintf("pioqo: session drain leaked %d broker credits", n))
		}
		if n := ses.b.PoolInUse(); n != 0 {
			panic(fmt.Sprintf("pioqo: session drain leaked %d reserved pool pages", n))
		}
		if sh := ses.sys.coord().Shares; sh != nil {
			if n := sh.Live(); n != 0 {
				panic(fmt.Sprintf("pioqo: session drain left %d consumers attached to circulating scans", n))
			}
		}
	}
	return first
}
