package pioqo

import (
	"context"
	"errors"
	"fmt"
	"time"

	"pioqo/internal/broker"
	"pioqo/internal/buffer"
	"pioqo/internal/exec"
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
	// engine-assigned query id, its lease and what its process records,
	// and pages, the executor's live fetch counter Progress reads.
	*queryRun
	q   Query
	res exec.Result
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
	return scalarResult(sub.res, sub.plan, sub.runtime), nil
}

// Admission returns the broker's admission record for the query. Valid
// once the submission is Done.
func (sub *Submission) Admission() Admission { return sub.adm }

// Session is an admission-controlled stream of queries sharing the
// system's resource broker. Each Submit runs the query lifecycle every
// entry point runs up to its process — planned once, under the broker's
// fair share, and enqueued for the queue depth that plan was priced at —
// and Drain runs the simulation until every submitted query has finished.
// Unlike ExecuteConcurrent's closed batches, a session is open-ended:
// submit, drain, inspect, submit more. A query submitted to an idle
// session receives an unbounded lease and plans exactly as a standalone
// Execute would.
type Session struct {
	sys    *System
	b      *broker.Broker
	subs   []*Submission // submissions not yet drained
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
// at, and registers its process. The query runs during the next Drain.
// With Cold(), the buffer pool is flushed now — before planning, as in
// Execute. Sharded tables are rejected: a session is single-node.
func (ses *Session) Submit(q Query, opts ...QueryOption) (*Submission, error) {
	if ses.closed {
		return nil, fmt.Errorf("%w: session closed", ErrAdmissionClosed)
	}
	return ses.submit(q, parseOptions(opts))
}

// submit is the option-parsed core of Submit (ExecuteConcurrent enters
// here with the batch's one option set): Query's body started on the
// lifecycle, with its telemetry delivered as its process exits, and the
// submission kept for Drain.
func (ses *Session) submit(q Query, eo queryOptions) (*Submission, error) {
	sub := &Submission{q: q}
	lc := lifecycle{op: "submit", scan: q, tables: []*Table{q.Table}}
	r, err := ses.sys.start(context.Background(), lc, eo, true, func(r *queryRun, po PlanOptions) (planned, error) {
		return r.scalar(q, po, nil, &sub.res)
	})
	if err != nil {
		return nil, err
	}
	sub.queryRun = r
	ses.subs = append(ses.subs, sub)
	return sub, nil
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
	ses.sys.checkDrained()
	return first
}
