//go:build go1.23

// Package sim implements a deterministic discrete-event simulation (DES)
// kernel with coroutine-style processes.
//
// All database operators, calibration drivers, and storage devices in this
// repository run in virtual time on top of this kernel: the clock jumps from
// event to event, exactly one process executes at a time, and reruns with the
// same seed are bit-identical. This is what lets a parameter sweep that
// models minutes of device time finish in milliseconds of host time.
//
// The programming model mirrors classic process-oriented simulators
// (SimPy, CSIM): a process is an ordinary function that blocks in virtual
// time via Proc.Sleep, Proc.Wait, or Proc.Acquire.
//
// A process body runs on a coroutine (iter.Pull). One event loop pops events
// in (time, sequence) order on whichever stack holds the baton: Run's caller
// first, then every process that parks or exits. The driver fires callbacks
// inline, returns straight into its own process when the next wake is its
// own (no switch), and otherwise names the woken process and yields to Run's
// goroutine, the one trampoline, which resumes it: two coroutine switches,
// neither through the Go scheduler, all one thread of control, so simulation
// state needs no locking. A finished body's coroutine waits on its Env's
// bounded free list for the next process, until the first collection after a
// Run. Processes still parked keep theirs, and the Env with them.
//
// Two caveats. Schedule and OnFire callbacks run on whichever stack is
// driving, usually a process's; a panic in one still surfaces from Run and
// leaves that bystander parked. And runtime.Goexit (t.FailNow) in a body or a
// callback is not confined to a process: the one whose stack it is on runs
// its deferred calls and leaves the live set, then the goroutine that called
// Run ends as if it had called Goexit itself; a later Run resumes the rest.
package sim

import (
	"fmt"
	"iter"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Common durations, mirroring the time package.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Micros reports d as a floating-point number of microseconds.
func (d Duration) Micros() float64 { return float64(d) / float64(Microsecond) }

// Millis reports d as a floating-point number of milliseconds.
func (d Duration) Millis() float64 { return float64(d) / float64(Millisecond) }

// Seconds reports d as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

func (d Duration) String() string {
	switch {
	case d < Microsecond:
		return fmt.Sprintf("%dns", int64(d))
	case d < Millisecond:
		return fmt.Sprintf("%.2fus", d.Micros())
	case d < Second:
		return fmt.Sprintf("%.3fms", d.Millis())
	default:
		return fmt.Sprintf("%.4fs", d.Seconds())
	}
}

// Sub reports the duration t - u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Add reports the time t + d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// event is one scheduled occurrence. Events with equal times fire in the
// order they were scheduled (seq breaks ties), which keeps the simulation
// deterministic. An event either resumes a parked process (proc != nil) —
// the common Sleep/Wait/grant case, which carries the process in the event
// itself and allocates nothing — or runs a callback (fn != nil).
type event struct {
	at   Time
	seq  uint64
	proc *Proc
	fn   func()
}

// eventQueue is a value-typed binary min-heap ordered by (at, seq). Keeping
// events by value in one slice avoids the per-event heap allocation and the
// interface{} boxing of container/heap, and the slice's storage is reused
// across Schedule calls as the queue grows and drains. Because (at, seq) is
// a total order (seq is unique), any correct heap pops events in exactly the
// same sequence, so swapping the implementation preserves bit-identical
// simulations.
type eventQueue []event

func (q eventQueue) less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q *eventQueue) push(ev event) {
	h := append(*q, ev)
	*q = h
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // release the callback for GC before shrinking
	h = h[:n]
	*q = h
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h.less(r, child) {
			child = r
		}
		if !h.less(child, i) {
			break
		}
		h[i], h[child] = h[child], h[i]
		i = child
	}
	return top
}

// Env is a simulation environment: a virtual clock, an event queue, and the
// set of live processes. An Env is not safe for concurrent use from host
// goroutines; all interaction happens from process context or between calls
// to Run.
type Env struct {
	now    Time
	events eventQueue
	seq    uint64
	rng    *rand.Rand

	live    map[*Proc]struct{}
	nParked int // live processes currently parked, for deadlock detection

	root     *Proc      // stands for Run's goroutine: never live, never parked
	next     *Proc      // whom a yielding process named as the baton's next holder
	deadline Time       // RunUntil: events later than this stay queued
	direct   *Proc      // a wake due now that no queued event precedes (wake)
	handoffs uint64     // baton passes between stacks; tests pin the count
	idle     []*coro    // the free list: coroutines whose body returned, waiting for a process
	mu       sync.Mutex // orders runs against ticket.expire, which is on the finalizer goroutine
	runs     uint64     // trampolines entered

	// panicked carries a panic raised on a process stack — in the process
	// body or in a callback that process was driving — so that Run can
	// re-raise it on its caller's goroutine.
	panicked interface{}
}

// NewEnv returns an environment whose clock reads zero and whose random
// source is seeded with seed. Two environments built with the same seed and
// driven by the same process logic produce identical event sequences.
func NewEnv(seed int64) *Env {
	e := &Env{rng: rand.New(rand.NewSource(seed)), live: make(map[*Proc]struct{})}
	e.root = &Proc{env: e, name: "run"}
	return e
}

// Now reports the current virtual time.
func (e *Env) Now() Time { return e.now }

// LiveProcs reports how many spawned processes have not yet exited —
// running, parked, or scheduled to start. After a clean Run it is zero;
// test harnesses assert that to catch leaked simulation processes, the way
// goleak catches leaked goroutines.
func (e *Env) LiveProcs() int { return len(e.live) }

// Rand returns the environment's deterministic random source.
func (e *Env) Rand() *rand.Rand { return e.rng }

// Schedule registers fn to run at time e.Now()+d. It may be called from
// process context or from another event callback. Scheduling into the past
// panics: it would make the clock non-monotonic.
func (e *Env) Schedule(d Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: scheduling %v into the past", d))
	}
	e.seq++
	e.events.push(event{at: e.now.Add(d), seq: e.seq, fn: fn})
}

// wake schedules p to be handed control at e.Now()+d. This is the kernel's
// internal fast path: the process rides in the event itself, so the common
// sleep/completion/grant wakeups allocate no closure. A wake due now while no
// queued event is due now is the loop's next resume, whatever is scheduled
// after it, so it skips the queue and waits in direct (one at a time; its
// seq is still spent, so every later event keeps its number). That is the
// wake a completion gives its waiter, once per device request.
func (e *Env) wake(p *Proc, d Duration) {
	e.seq++
	if d == 0 && e.direct == nil && (len(e.events) == 0 || e.events[0].at > e.now) {
		e.direct = p
		return
	}
	e.events.push(event{at: e.now.Add(d), seq: e.seq, proc: p})
}

// parkKind says why a process is parked. The human-readable reason is only
// materialised (parkReason) when a deadlock report is actually built, so
// parking costs no allocation on the happy path.
type parkKind uint8

const (
	parkNone parkKind = iota
	parkSleep
	parkCompletion
	parkWaitGroup
	parkResource
	parkSignal
)

// Proc is a simulation process: a coroutine that runs only while it holds
// the baton and blocks in virtual time. Methods on Proc must only be called
// from the process's own body.
type Proc struct {
	env  *Env
	name string
	co   *coro         // the coroutine the body runs on, from its first hand-off to its exit
	fn   func(p *Proc) // the body, until the first hand-off starts it
	done bool

	parked    bool
	parkKind  parkKind
	parkDur   Duration // parkSleep: the sleep length
	parkExtra string   // parkResource: the resource name
	granted   bool     // parkResource: Release handed this process a unit
}

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Name returns the diagnostic name the process was spawned with.
func (p *Proc) Name() string { return p.name }

// Now reports the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// parkReason renders why the process is parked, for deadlock reports.
func (p *Proc) parkReason() string {
	switch p.parkKind {
	case parkSleep:
		return fmt.Sprintf("sleeping %v", p.parkDur)
	case parkCompletion:
		return "completion"
	case parkWaitGroup:
		return "waitgroup"
	case parkSignal:
		return "signal"
	case parkResource:
		return "resource " + p.parkExtra
	default:
		return "unknown"
	}
}

// Go spawns fn as a new process named name. The process starts at the
// current virtual time, after the caller yields. Go may be called before Run
// or from any process or event context.
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{env: e, name: name, fn: fn}
	e.live[p] = struct{}{}
	e.wake(p, 0)
	return p
}

// Free-list bound: twice the widest fleet the optimizer plans. Gosched: see pass.
const maxIdleCoros, resumesPerGosched = 64, 1024

// coro is one iter.Pull coroutine. Starting one costs nine allocations more
// than a go statement, so a finished body's takes the next process instead.
type coro struct {
	resume func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool
	proc   *Proc // the process to start, set by the trampoline before resume
}

// ticket is how the free list ends. An idle coroutine is a parked goroutine
// that only stop ends and every collection scans (a microsecond each: six
// idle systems' worth slowed a set-up beside them by a tenth), so the list
// does not wait for its Env to go. Each trampoline leaves an unreachable
// ticket behind, and the last one's finalizer empties the list at the next
// collection unless a Run has begun since: none is under way then, and none
// begins before the unlock. (stop makes loop's yield report false.)
type ticket struct {
	e    *Env
	runs uint64
}

func (t *ticket) expire() {
	t.e.mu.Lock()
	defer t.e.mu.Unlock()
	if t.runs == t.e.runs {
		for _, c := range t.e.idle {
			c.stop()
		}
		t.e.idle = nil
	}
}

func (c *coro) loop(yield func(struct{}) bool) {
	c.yield = yield
	for c.run(c.proc) && yield(struct{}{}) {
	}
}

// run runs p's body and reports whether the coroutine went back on the free
// list. When the body returns (or panics) the coroutine still holds the
// baton, so it drives the loop until the baton belongs to someone else. Only
// a body that returned leaves a coroutine fit for reuse; any other ends.
func (c *coro) run(p *Proc) (reuse bool) {
	e, fn := p.env, p.fn
	c.proc, p.fn, p.co = nil, nil, c
	defer func() {
		p.done, p.co = true, nil
		delete(e.live, p)
		if !reuse {
			if e.panicked = recover(); e.panicked == nil { // Goexit: iter.Pull carries it to Run's goroutine
				if p.parked { // a bystander, unwound by a callback's Goexit
					e.nParked--
				}
				return
			}
		}
		e.drive(p)
		if reuse = reuse && len(e.idle) < maxIdleCoros; reuse {
			e.idle = append(e.idle, c)
		}
	}()
	fn(p)
	return true
}

// drive is the event loop. It runs on whichever stack holds the baton: Run's
// (self == e.root) or that of a process that has just parked or exited.
// Callbacks fire inline; a wake for self just returns, resuming self with no
// switch; a wake for another process passes the baton to it. The baton goes
// back to root only when the loop must stop (queue empty, deadline next,
// panic pending). drive returns once self holds the baton again, or has
// given it away for good (an exited process).
func (e *Env) drive(self *Proc) {
	if self != e.root {
		// A panicking callback must surface from Run, not unwind the
		// unrelated process whose stack happened to be driving.
		defer func() {
			if r := recover(); r != nil {
				e.panicked = r
				e.pass(self, e.root)
			}
		}()
	}
	for e.panicked == nil {
		if p := e.direct; p != nil && e.now <= e.deadline {
			e.direct = nil
			if p != self {
				e.pass(self, p)
			}
			return
		}
		if len(e.events) == 0 || e.events[0].at > e.deadline {
			break
		}
		ev := e.events.pop()
		if ev.at < e.now {
			panic("sim: event queue went backwards")
		}
		e.now = ev.at
		if ev.fn != nil {
			ev.fn()
			continue
		}
		if ev.proc != self {
			e.pass(self, ev.proc)
		}
		return
	}
	if self != e.root {
		e.pass(self, e.root)
	}
}

// pass hands the baton from self to to and returns when it comes back (an
// exited process does not wait). A process names the next holder and yields;
// root is the trampoline, resuming whoever was named — on a coroutine off
// the free list if it has yet to start — until root itself is named. No
// coroutine switch enters the Go scheduler, so on one P the GC's mark worker
// would wait out a Run for sysmon's 10 ms preemption while processes pay its
// work in assists (a cold SSD Calibrate took half again as long): hence the
// Gosched on entry, every resumesPerGosched resumes, and on the way out.
func (e *Env) pass(self, to *Proc) {
	e.handoffs++
	if self != e.root {
		if e.next = to; !self.done {
			self.co.yield(struct{}{})
		}
		return
	}
	e.mu.Lock() // an expire under way finishes first; every ticket is stale from here
	e.runs++
	e.mu.Unlock()
	defer func() { // deferred, because a Goexit in a process unwinds through here
		if len(e.idle) > 0 {
			runtime.SetFinalizer(&ticket{e, e.runs}, (*ticket).expire)
		}
		runtime.Gosched()
	}()
	for n := 0; to != e.root; n++ {
		if n%resumesPerGosched == 0 {
			runtime.Gosched()
		}
		c := to.co
		if c == nil {
			if last := len(e.idle) - 1; last >= 0 {
				c, e.idle = e.idle[last], e.idle[:last]
			} else {
				c = new(coro)
				c.resume, c.stop = iter.Pull(c.loop)
			}
			c.proc = to
		}
		c.resume()
		to = e.next
	}
}

// park suspends the calling process, recording a typed wait reason for
// deadlock reports, and drives the event loop from this stack until the
// process's own wake event has popped.
func (p *Proc) park(kind parkKind, d Duration, extra string) {
	p.parked = true
	p.parkKind = kind
	p.parkDur = d
	p.parkExtra = extra
	p.env.nParked++
	p.env.drive(p)
	p.parked = false
	p.env.nParked--
}

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: %s sleeping %v", p.name, d))
	}
	p.env.wake(p, d)
	p.park(parkSleep, d, "")
}

// checkDeadlock panics with the parked processes' names and wait reasons if
// any process is still parked once the event queue has drained.
func (e *Env) checkDeadlock() {
	if e.nParked == 0 {
		return
	}
	var stuck []string
	for p := range e.live {
		if p.parked {
			stuck = append(stuck, fmt.Sprintf("%s (%s)", p.name, p.parkReason()))
		}
	}
	sort.Strings(stuck)
	panic(fmt.Sprintf("sim: deadlock at t=%v: %d process(es) still waiting: %v",
		Duration(e.now), len(stuck), stuck))
}

// Run drives the simulation until the event queue is empty. It returns the
// final virtual time. If processes are still parked when the queue drains,
// the simulation has deadlocked and Run panics with the parked processes'
// names and wait reasons. A panic raised by a process or callback is
// re-raised here with its original value.
func (e *Env) Run() Time {
	e.RunUntil(math.MaxInt64)
	return e.now
}

// RunUntil drives the simulation until the event queue is empty or the clock
// would pass deadline. Events at exactly deadline still fire. It reports
// whether the queue drained (true) or the deadline cut the run short (false).
// Like Run, it enforces clock monotonicity and panics with a deadlock report
// if the queue drains while processes are still parked.
func (e *Env) RunUntil(deadline Time) bool {
	e.deadline = deadline
	e.drive(e.root)
	if r := e.panicked; r != nil {
		e.panicked = nil
		panic(r)
	}
	if len(e.events) > 0 || e.direct != nil {
		return false
	}
	e.checkDeadlock()
	return true
}
