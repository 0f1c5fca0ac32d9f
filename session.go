package pioqo

import (
	"context"
	"errors"
	"fmt"
	"time"

	"pioqo/internal/broker"
	"pioqo/internal/buffer"
)

// Admission reports how the resource broker treated one submitted query.
type Admission struct {
	// Budget is the queue-depth budget the query executed under — its lease
	// from the broker: the depth its plan was priced at, capped at the
	// supply. Zero means unbounded: the query was alone on an idle device
	// and planned exactly as Run would — or it finished before its grant.
	Budget int

	// PoolPages is the buffer-pool page reservation attached to the lease
	// (0 = ungoverned, the whole pool).
	PoolPages int

	// Wait is the virtual time from submit to the broker's grant, for a
	// query that passed its gate: it waited for the grant at a device read,
	// or read holding it. A query that never needed the device — its pages
	// resident, or read for other queries — reports 0. Wait plus
	// Result.Runtime is the query's submit-to-done time.
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
}

// Done reports whether the query has finished executing (after the Drain
// that covers it).
func (sub *Submission) Done() bool { return sub.done }

// Result returns the query's result. Calling it before the session has
// been drained past this submission is an error.
func (sub *Submission) Result() (Result, error) {
	if !sub.done && sub.err == nil {
		return Result{}, errors.New("pioqo: submission not executed; call Session.Drain first")
	}
	return sub.result()
}

// Admission returns the broker's admission record for the query. Valid
// once the submission is Done.
func (sub *Submission) Admission() Admission { return sub.adm }

// Session is an admission-controlled stream of requests sharing the
// system's resource broker. Each Submit runs the query lifecycle Run runs
// up to its process — planned once, under the broker's fair share, and
// enqueued for the queue depth that plan was priced at — and Drain runs the
// simulation until every submitted query has finished, through the drain
// Run ends on. Any request kind may be submitted, over any table Run
// accepts. Unlike ExecuteConcurrent's closed batches, a session is
// open-ended: submit, drain, inspect, submit more. A query submitted to an
// idle session receives an unbounded lease and plans exactly as a
// standalone Run would.
type Session struct {
	sys    *System
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
	if _, err := s.sharedBroker(); err != nil {
		return nil, err
	}
	return &Session{sys: s}, nil
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

// Submit validates req, plans it under the broker's current fair share,
// enqueues it for admission asking for the queue depth that plan was priced
// at, and registers its process — every request kind, over any table, as
// Run starts it; its telemetry is delivered as its process exits. The query
// runs during the next Drain. With Cold(), the buffer pool is flushed now —
// before planning, as in Run.
func (ses *Session) Submit(req Request, opts ...QueryOption) (*Submission, error) {
	return ses.submit(req, parseOptions(opts))
}

// submit is Submit with its options parsed: ExecuteConcurrent parses its
// batch's once.
func (ses *Session) submit(req Request, eo queryOptions) (*Submission, error) {
	if ses.closed {
		return nil, fmt.Errorf("%w: session closed", ErrAdmissionClosed)
	}
	r, err := ses.sys.start(context.Background(), req, eo, true)
	if err != nil {
		return nil, err
	}
	sub := &Submission{r}
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
	ses.sys.drain()
	var first error
	for _, sub := range ses.subs {
		if sub.err != nil && first == nil {
			first = sub.err
		}
	}
	ses.subs = ses.subs[:0]
	return first
}
