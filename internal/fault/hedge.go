package fault

import (
	"pioqo/internal/device"
	"pioqo/internal/obs"
	"pioqo/internal/sim"
)

// Hedger is a straggler-hedging device layer: when a read has not
// completed after the configured delay, it re-issues the same read on the
// inner device and delivers whichever copy finishes first. Sitting above
// the fault injector, the speculative copy re-draws the injector's
// straggler probability — a hedge against the first read having drawn the
// straggler latency — which is exactly the paper-adjacent "re-issue the
// slow shard's read" policy the scatter-gather executor wants under
// injected stragglers. The race re-arms: each further delay with no copy
// landed issues one more copy, up to maxCopies, so a copy that straggles
// too costs another delay, not the straggler latency.
//
// Exactly-once delivery is structural: the caller holds the single outer
// completion, so the losing copies complete into the hedger and go no
// further — the buffer pool installs the page once and rows are delivered
// once, however many copies were in flight.
//
// A disarmed hedger (the default) forwards the inner device's completions
// untouched: it schedules nothing and allocates nothing, so non-gather
// traffic — calibration included — is byte-identical to an unhedged run.
// The gather executor arms it only for the span of a scatter-gather query.
type Hedger struct {
	env   *sim.Env
	inner device.Device
	delay sim.Duration
	armed bool
	obs   *obs.Registry

	free    []*hedge // finished races, for the next armed reads
	records int      // hedge records ever made: all on free once the queue drains
}

// NewHedger wraps inner with a disarmed hedger that, once armed, re-issues
// reads still outstanding after each delay. Hedge decisions are recorded
// in rec as device-level events (obs.NoQuery), which count the copies
// issued (shard.hedge_issued) and the races a copy won (shard.hedge_wins);
// nil records nothing.
func NewHedger(env *sim.Env, rec *obs.Registry, inner device.Device, delay sim.Duration) *Hedger {
	if delay <= 0 {
		panic("fault: NewHedger with non-positive delay")
	}
	return &Hedger{env: env, obs: rec, inner: inner, delay: delay}
}

// Arm enables hedging; Disarm returns the hedger to pure passthrough.
// Toggling never affects reads already in flight.
func (h *Hedger) Arm()    { h.armed = true }
func (h *Hedger) Disarm() { h.armed = false }

// Armed reports whether the hedger is currently re-issuing slow reads.
func (h *Hedger) Armed() bool { return h.armed }

// Races reports the armed reads whose race has not yet run its last
// callback — a copy or a timer still pending. It is 0 once the queue
// drains: every hedge record is back on the free list.
func (h *Hedger) Races() int { return h.records - len(h.free) }

// ReadAt submits the read on the inner device and, while armed, schedules
// the hedging race: each time the delay passes with no copy landed, one
// more duplicate is issued, up to maxCopies of them, and the first copy to
// finish fires the returned completion. Every copy pays real device time —
// speculation is visible in the device metrics, as it would be on hardware.
func (h *Hedger) ReadAt(offset int64, length int) *sim.Completion {
	first := h.inner.ReadAt(offset, length)
	if !h.armed {
		return first
	}
	r := h.record()
	r.offset, r.length, r.issued = offset, length, h.env.Now()
	r.out, r.copies[0], r.n = sim.NewCompletion(h.env), first, 1
	r.pending = 2 // the first copy's completion and the timer
	first.OnFire(r.onDone[0])
	h.env.Schedule(h.delay, r.onTimer)
	return r.out
}

// maxCopies caps the speculative copies one read races beside its
// original. A copy that straggles too is raced again a delay later; past
// three, a further copy no longer moved cluster_gather's makespan.
const maxCopies = 3

// hedge is one armed read's race. Its callbacks are bound once, when the
// record is first made, and the record goes back on the hedger's free list
// when the last of them has run — so an armed read allocates its outer
// completion, plus each issued copy's inner completion, and nothing else.
type hedge struct {
	h      *Hedger
	offset int64
	length int
	issued sim.Time

	out     *sim.Completion                // the caller's
	copies  [1 + maxCopies]*sim.Completion // the inner device's: the original, then each copy
	n       int                            // copies issued, the original included
	done    bool                           // out has been completed
	pending int                            // callbacks still to run

	onTimer func()                // = timer
	onDone  [1 + maxCopies]func() // onDone[i] = copyDone(i)
}

// record takes a hedge record off the free list, or makes one.
func (h *Hedger) record() *hedge {
	if n := len(h.free); n > 0 {
		r := h.free[n-1]
		h.free = h.free[:n-1]
		return r
	}
	r := &hedge{h: h}
	r.onTimer = r.timer
	for i := range r.onDone {
		r.onDone[i] = func() { r.copyDone(i) }
	}
	h.records++
	return r
}

// release retires one callback, and with the last one the record. A
// callback calls it last: completing out may submit the next read from
// inside Fire, which must not find this record on the list yet.
func (r *hedge) release() {
	r.pending--
	if r.pending == 0 {
		r.out, r.copies, r.n, r.done = nil, [1 + maxCopies]*sim.Completion{}, 0, false
		r.h.free = append(r.h.free, r)
	}
}

// copyDone runs when copy i lands: the first to land completes the
// caller's read, with its error if it failed, and the rest go no further.
func (r *hedge) copyDone(i int) {
	if !r.done {
		r.done = true
		h := r.h
		if i > 0 {
			h.obs.Emit(obs.EvShardHedgeWin, obs.NoQuery, r.offset, int64(h.env.Now()-r.issued))
		}
		if err := r.copies[i].Err(); err != nil {
			r.out.Fail(err)
		} else {
			r.out.Fire()
		}
	}
	r.release()
}

// timer runs each time the hedge delay passes: a read still outstanding
// gets one more speculative copy and, below the cap, another timer.
func (r *hedge) timer() {
	if !r.done {
		h := r.h
		h.obs.Emit(obs.EvShardHedgeIssue, obs.NoQuery, r.offset, int64(h.delay))
		i := r.n
		r.copies[i] = h.inner.ReadAt(r.offset, r.length)
		r.n++
		r.pending++
		if r.n <= maxCopies {
			r.pending++
			h.env.Schedule(h.delay, r.onTimer)
		}
		r.copies[i].OnFire(r.onDone[i])
	}
	r.release()
}

// WriteAt passes writes through unhedged: speculative duplicate writes
// would not be idempotent at the device level.
func (h *Hedger) WriteAt(offset int64, length int) *sim.Completion {
	return h.inner.WriteAt(offset, length)
}

// Size implements device.Device.
func (h *Hedger) Size() int64 { return h.inner.Size() }

// Name implements device.Device, reporting the inner device's name so
// model selection and rendering are hedging-agnostic.
func (h *Hedger) Name() string { return h.inner.Name() }

// Metrics implements device.Device; speculative reads count in the inner
// device's instrumentation like any other request.
func (h *Hedger) Metrics() *device.Metrics { return h.inner.Metrics() }
