package sim

// Completion is a one-shot event that processes can wait on and any context
// (process, device callback, event callback) can fire. It is the rendezvous
// used for asynchronous I/O: the issuer receives a *Completion when it
// submits a request and waits on it when — and only if — it needs the result.
//
// Waiting on an already-fired Completion returns immediately, which makes
// group waiting ("fire n, wait for all n in any order") trivial.
//
// A completion can also carry a failure: Fail(err) fires it with an error
// attached, which waiters read back through Err. This is how injected
// device faults propagate to the issuer without a second signalling path.
type Completion struct {
	env *Env
	at  Time
	err error

	// waiter and callback are the first process to Wait and the first
	// function registered with OnFire. An I/O request has at most one of
	// each — its issuer, and the pool's load callback — so it allocates its
	// completion and nothing else. Any later ones go to more, in
	// registration order; Fire serves the first, then those.
	waiter   *Proc
	callback func()
	more     *overflow
	fired    bool
}

// overflow holds a completion's waiters and callbacks beyond the first.
type overflow struct {
	waiters   []*Proc
	callbacks []func()
}

// NewCompletion returns an unfired completion bound to e.
func NewCompletion(e *Env) *Completion {
	return &Completion{env: e}
}

// Fired reports whether the completion has fired.
func (c *Completion) Fired() bool { return c.fired }

// FiredAt returns the virtual time the completion fired. It panics if the
// completion has not fired.
func (c *Completion) FiredAt() Time {
	if !c.fired {
		panic("sim: FiredAt on unfired completion")
	}
	return c.at
}

// Fire marks the completion done at the current virtual time and schedules
// every waiter to resume. Firing twice panics: a completion represents a
// single asynchronous result.
func (c *Completion) Fire() {
	if c.fired {
		panic("sim: completion fired twice")
	}
	c.fired = true
	c.at = c.env.now
	waiter, callback, more := c.waiter, c.callback, c.more
	c.waiter, c.callback, c.more = nil, nil, nil
	if waiter != nil {
		c.env.wake(waiter, 0)
	}
	if more != nil {
		for _, p := range more.waiters {
			c.env.wake(p, 0)
		}
	}
	if callback != nil {
		callback()
	}
	if more != nil {
		for _, fn := range more.callbacks {
			fn()
		}
	}
}

// spill returns the overflow lists, creating them on first use.
func (c *Completion) spill() *overflow {
	if c.more == nil {
		c.more = &overflow{}
	}
	return c.more
}

// Fail fires the completion with err attached: waiters resume as with Fire
// and read the error back through Err. Failing twice, or failing after a
// Fire, panics like a double Fire would.
func (c *Completion) Fail(err error) {
	if err == nil {
		panic("sim: Fail with nil error")
	}
	c.err = err
	c.Fire()
}

// Err reports the error the completion failed with, or nil if it fired
// normally (or has not fired yet).
func (c *Completion) Err() error { return c.err }

// OnFire registers fn to run (in event context, at the firing time) when c
// fires. If c has already fired, fn runs immediately.
func (c *Completion) OnFire(fn func()) {
	if c.fired {
		fn()
		return
	}
	if c.callback == nil {
		c.callback = fn
		return
	}
	m := c.spill()
	m.callbacks = append(m.callbacks, fn)
}

// Wait suspends the process until c fires. If c has already fired, Wait
// returns immediately without yielding.
func (p *Proc) Wait(c *Completion) {
	if c.fired {
		return
	}
	if c.waiter == nil {
		c.waiter = p
	} else {
		m := c.spill()
		m.waiters = append(m.waiters, p)
	}
	p.park(parkCompletion, 0, "")
}

// Excuse resumes p, parked in Wait on c, without firing c: p's Wait returns
// with c still pending, and c's other waiters keep waiting in their order.
// It reports whether p was waiting on c. This is how an abort reaches a
// process parked on a rendezvous it no longer needs.
func (c *Completion) Excuse(p *Proc) bool {
	switch {
	case c.waiter == p:
		c.waiter = nil
		if c.more != nil && len(c.more.waiters) > 0 {
			c.waiter = c.more.waiters[0]
			c.more.waiters = c.more.waiters[1:]
		}
	case c.more != nil:
		i := 0
		for i < len(c.more.waiters) && c.more.waiters[i] != p {
			i++
		}
		if i == len(c.more.waiters) {
			return false
		}
		c.more.waiters = append(c.more.waiters[:i], c.more.waiters[i+1:]...)
	default:
		return false
	}
	c.env.wake(p, 0)
	return true
}

// WaitAll suspends the process until every completion in cs has fired.
func (p *Proc) WaitAll(cs []*Completion) {
	for _, c := range cs {
		p.Wait(c)
	}
}

// WaitGroup counts outstanding work items across processes, like
// sync.WaitGroup but in virtual time. Add and Done may be called from any
// simulation context; Wait only from process context.
type WaitGroup struct {
	env     *Env
	count   int
	waiters []*Proc
}

// NewWaitGroup returns an empty wait group bound to e.
func NewWaitGroup(e *Env) *WaitGroup {
	return &WaitGroup{env: e}
}

// Add adds delta (which may be negative) to the counter. The counter going
// negative panics. When the counter reaches zero, all waiters resume.
func (w *WaitGroup) Add(delta int) {
	w.count += delta
	if w.count < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if w.count == 0 && len(w.waiters) > 0 {
		waiters := w.waiters
		w.waiters = nil
		for _, p := range waiters {
			w.env.wake(p, 0)
		}
	}
}

// Done decrements the counter by one.
func (w *WaitGroup) Done() { w.Add(-1) }

// WaitFor suspends the process until the counter is zero. If it is already
// zero, WaitFor returns immediately.
func (p *Proc) WaitFor(w *WaitGroup) {
	if w.count == 0 {
		return
	}
	w.waiters = append(w.waiters, p)
	p.park(parkWaitGroup, 0, "")
}

// Any is a set of completions a process waits on for whichever fires first:
// the "reissue as soon as any read completes" of an active-wait driver. Add
// puts a completion in the set; WaitAny takes one fired completion out,
// parking until one fires if none has. The set counts rather than names its
// completions, so a waiter learns that one fired, not which. The zero value
// is an empty set; its completion callback is a method value bound on the
// first Add, so a set kept across uses allocates nothing per completion or
// per wait. At most one process waits on a set at a time.
type Any struct {
	pending int   // added, not yet fired
	ready   int   // fired, not yet taken by WaitAny
	waiter  *Proc // the process parked in WaitAny, if any
	onFire  func()
}

// Add puts c in the set. A completion that has already fired is ready at
// once.
func (a *Any) Add(c *Completion) { c.OnFire(a.Hook()) }

// Hook puts one completion in the set that the caller reports itself: the
// returned callback must run exactly once, when that completion fires. It
// is for a completion whose callback slot another layer holds — the buffer
// pool's load callback runs it once the read's pages are installed — and,
// bound on the first call, it allocates nothing.
func (a *Any) Hook() func() {
	if a.onFire == nil {
		a.onFire = a.fired
	}
	a.pending++
	return a.onFire
}

// Reset empties a set whose completions have all fired, dropping those no
// WaitAny took, so the set can be kept for the next round. It panics while
// one is pending: its firing would count into the emptied set.
func (a *Any) Reset() {
	if a.pending > 0 {
		panic("sim: Reset of an Any with completions pending")
	}
	a.ready = 0
}

// Pending reports how many completions in the set have not fired.
func (a *Any) Pending() int { return a.pending }

// Len reports how many completions are in the set, fired or not.
func (a *Any) Len() int { return a.pending + a.ready }

// fired moves one completion from pending to ready and wakes the waiter,
// through the same fast path a Wait's completion takes.
func (a *Any) fired() {
	a.pending--
	a.ready++
	if p := a.waiter; p != nil {
		a.waiter = nil
		p.env.wake(p, 0)
	}
}

// WaitAny suspends the process until a completion in a has fired, then
// takes that completion out of the set. If one has fired already it returns
// at once, without yielding; completions that fire together are taken one
// per call. Waiting on an empty set panics: nothing could wake it.
func (p *Proc) WaitAny(a *Any) {
	if a.ready == 0 {
		if a.pending == 0 {
			panic("sim: " + p.name + " waiting on an empty Any")
		}
		if a.waiter != nil {
			panic("sim: " + p.name + " waiting on an Any " + a.waiter.name + " waits on")
		}
		a.waiter = p
		p.park(parkCompletion, 0, "")
	}
	a.ready--
}

// Signal is a wake that any number of processes wait on together and any
// context raises: Notify resumes every process waiting at that moment, in
// the order they began to wait, and the signal is ready for the next round
// at once. It holds no state besides its waiters — a Notify with no one
// waiting is lost — so a waiter tests its condition and waits in one step
// (nothing else runs between the two). The zero value is ready to use, and
// the waiter list's storage is kept, so a signal allocates nothing once it
// has held its largest round.
type Signal struct {
	waiters []*Proc
}

// Await suspends the process until s is next notified.
func (p *Proc) Await(s *Signal) {
	s.waiters = append(s.waiters, p)
	p.park(parkSignal, 0, "")
}

// Notify resumes every process waiting on s, through the same fast path a
// Wait's completion takes.
func (s *Signal) Notify() {
	for i, p := range s.waiters {
		p.env.wake(p, 0)
		s.waiters[i] = nil
	}
	s.waiters = s.waiters[:0]
}
