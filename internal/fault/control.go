package fault

import (
	"context"
	"errors"

	"pioqo/internal/sim"
)

// Control is a per-query abort switch. The query driver installs the abort
// sources — an explicit Cancel, a virtual-time deadline, a host-context
// poll — and every executor checks Aborted() at batch boundaries, so a
// query stops within one virtual-time batch of the abort becoming visible.
//
// The deadline is polled, never scheduled: installing it adds no events to
// the simulation, so a query that finishes in time runs byte-identically to
// one with no deadline at all. A nil *Control is valid and never aborts,
// which lets execution paths that predate the fault layer (joins, group-by,
// calibration) run unchanged.
type Control struct {
	env      *sim.Env
	deadline sim.Time
	poll     func() error
	err      error
	waker    Waker     // what Cancel wakes, and
	woken    *sim.Proc // the process it wakes
}

// Waker is a wait no batch boundary interrupts, such as a miss parked on a
// page intent until some query's grant: Wake resumes p, parked in it, at
// once.
type Waker interface {
	Wake(p *sim.Proc)
}

// NewControl returns an inert control bound to env: no deadline, no poll,
// not canceled.
func NewControl(env *sim.Env) *Control {
	return &Control{env: env}
}

// SetDeadline arms a virtual-time deadline: once env.Now() reaches t, the
// query is aborted with ErrDeadlineExceeded at its next batch boundary.
// A zero t means no deadline.
func (c *Control) SetDeadline(t sim.Time) { c.deadline = t }

// SetPoll installs a host-side abort source, typically ctx.Err from the
// caller's context. It is consulted on every Aborted() check; a non-nil
// return aborts the query with the mapped taxonomy error.
func (c *Control) SetPoll(fn func() error) { c.poll = fn }

// Cancel aborts the query with err. The first cause wins; later calls are
// no-ops. Cancel on a nil control is a no-op.
func (c *Control) Cancel(err error) {
	if c == nil || c.err != nil {
		return
	}
	if err == nil {
		err = ErrCanceled
	}
	c.err = err
	if w := c.waker; w != nil {
		c.waker = nil
		w.Wake(c.woken)
	}
}

// SetWake installs the wait Cancel wakes p from, so it leaves at once; a
// nil w removes it. The wake runs once, at the first Cancel. It stores an
// interface and a pointer, so parking allocates nothing. A nil control
// never cancels, and ignores it.
func (c *Control) SetWake(w Waker, p *sim.Proc) {
	if c != nil {
		c.waker, c.woken = w, p
	}
}

// Err reports why the query was aborted, or nil. Safe on a nil control.
func (c *Control) Err() error {
	if c == nil {
		return nil
	}
	return c.err
}

// Aborted reports whether the query should stop, latching the cause on
// first detection. Executors call it at batch boundaries; it is cheap when
// no abort source has tripped. Safe on a nil control (always false).
func (c *Control) Aborted() bool {
	if c == nil {
		return false
	}
	if c.err != nil {
		return true
	}
	if c.deadline != 0 && c.env.Now() >= c.deadline {
		c.err = ErrDeadlineExceeded
		return true
	}
	if c.poll != nil {
		if err := c.poll(); err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				c.err = ErrDeadlineExceeded
			} else {
				c.err = ErrCanceled
			}
			return true
		}
	}
	return false
}
