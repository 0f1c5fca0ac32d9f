package exec

import (
	"fmt"

	"pioqo/internal/buffer"
	"pioqo/internal/disk"
	"pioqo/internal/obs"
	"pioqo/internal/sim"
)

// cpuBudget batches a worker's CPU accounting: per-row and per-page costs
// accrue as debt and are charged to the simulated CPU in one merged
// Proc.Use at batch boundaries, instead of one kernel round-trip per row.
//
// The discipline that keeps batching honest is *settle before any device
// interaction*: debt is flushed immediately before an operation that could
// touch the device or block — fetching a page that is not fully loaded
// (miss or join of an in-flight read), issuing a prefetch, claiming a
// full-scan block, which moves the readahead window — and when the worker
// finishes. Because
// charges are deferred but never reordered across those points, every
// device request is issued at exactly the virtual time the row-at-a-time
// schedule would have issued it. With an uncontended CPU (degree ≤ cores)
// that makes batched execution *exactly* equivalent: same results, same
// virtual completion times. Under CPU contention the merged grants coarsen
// the FIFO interleaving between workers by at most one batch quantum (one
// page's worth of row costs), bounding virtual-time drift to well under a
// percent at experiment scales.
//
// All CPU charging in this package goes through this type (or useCPU for
// serialized driver work); the batch-cpu row of the root boundaries_test.go
// rejects a raw Use of the CPU resource elsewhere in the package.
type cpuBudget struct {
	ctx  *Context
	debt sim.Duration

	// What the worker's track span reports: pages fetched through the pool,
	// virtual time blocked on those fetches (device + join waits), and
	// virtual time spent queueing for and holding the CPU. Measured here,
	// where the blocking happens.
	span  *obs.Span
	pages int64
	io    sim.Duration
	cpu   sim.Duration

	// gov is the query's gate (nil: ungoverned). preIO and preCPU are the
	// parts of io and cpu that passed before its grant: a query that passes
	// its gate counts that time as admission wait (Admission.Wait runs from
	// submit to grant), so its spans leave it out (annotate). granted is set
	// once an interval has started after the grant: none later can precede
	// it.
	gov           Governor
	preIO, preCPU sim.Duration
	granted       bool
}

// newBudget returns a budget with a track span for one worker under the
// spec's span. With a nil tracer the budget works the same; it just has no
// span to annotate.
func newBudget(ctx *Context, spec *Spec, name string) cpuBudget {
	return cpuBudget{ctx: ctx, gov: spec.Gov, span: ctx.Tracer.StartTrack(spec.Span, name)}
}

// finish annotates and closes the worker span.
func (b *cpuBudget) finish(rows int64) {
	b.annotate(rows)
	b.span.End()
}

// annotate writes what the budget measured into its span. Once the query
// has passed its gate, time before the grant is admission wait, not the
// span's: annotate runs where the query's gate is settled.
func (b *cpuBudget) annotate(rows int64) {
	if b.span == nil {
		return
	}
	cpu, io := b.cpu, b.io
	if b.gov != nil && b.gov.Gated() {
		cpu, io = cpu-b.preCPU, io-b.preIO
	}
	b.span.SetAttr("pages", b.pages)
	b.span.SetAttr("rows", rows)
	b.span.SetAttr("cpu", cpu)
	b.span.SetAttr("io_wait", io)
}

// since returns the virtual time from t0 to now, and how much of it passed
// before the query's grant.
func (b *cpuBudget) since(t0 sim.Time) (d, pre sim.Duration) {
	now := b.ctx.Env.Now()
	d = sim.Duration(now - t0)
	if b.gov == nil || b.granted {
		return d, 0
	}
	at, ok := b.gov.GrantedAt()
	if !ok {
		return d, d
	}
	b.granted = at <= t0
	return d, sim.Duration(min(max(at, t0), now) - t0)
}

// charge accrues CPU debt without touching the simulator.
func (b *cpuBudget) charge(d sim.Duration) { b.debt += d }

// settle flushes all accrued debt in one merged Use.
func (b *cpuBudget) settle(wp *sim.Proc) {
	if b.debt <= 0 {
		return
	}
	d := b.debt
	b.debt = 0
	t0 := b.ctx.Env.Now()
	wp.Use(b.ctx.CPU, d)
	d, pre := b.since(t0)
	b.cpu += d
	b.preCPU += pre
}

// fetchE pins a page, settling outstanding debt first whenever the request
// could touch the device or block (the page is absent, or present but its
// read is still in flight). Loaded pages pin without settling, from the one
// index probe that found them — that is where merging wins. A governed miss
// goes through the pool's gate (FetchGated), which parks a query without its
// grant on the page's intent until the read or the query's abort. A failed
// read returns the device's error for fetchRetry's policy to handle; it
// still counts its blocked time but not a fetched page.
func (b *cpuBudget) fetchE(wp *sim.Proc, spec *Spec, f *disk.File, page int64) (buffer.Handle, error) {
	if h, ok := b.ctx.Pool.FetchLoaded(f, page); ok {
		b.pages++
		return h, nil
	}
	b.settle(wp)
	t0 := b.ctx.Env.Now()
	var h buffer.Handle
	var err error
	if spec.Gov != nil {
		h, err = b.ctx.Pool.FetchGated(wp, f, page, spec.Gov, spec.Ctl)
	} else {
		h, err = b.ctx.Pool.FetchPageE(wp, f, page)
	}
	b.blocked(t0)
	if err == nil {
		b.pages++
	}
	return h, err
}

// fetchRetry pins a page under the spec's fault policy: a failed read is
// retried up to Retry.MaxAttempts times with exponential backoff in virtual
// time. When the fault survives the policy — or the query aborts while
// backing off — the spec's control is canceled with the device error and
// fetchRetry reports false; the caller winds its worker down. A spec
// without a control keeps the pre-fault contract: the fault panics.
func (b *cpuBudget) fetchRetry(wp *sim.Proc, spec *Spec, f *disk.File, page int64) (buffer.Handle, bool) {
	pol := spec.Retry.Normalized()
	for attempt := 0; ; attempt++ {
		h, err := b.fetchE(wp, spec, f, page)
		if err == buffer.ErrLeftGate {
			return buffer.Handle{}, false // canceled at the gate: nothing was read
		}
		if err == nil {
			if spec.Progress != nil {
				*spec.Progress++
			}
			return h, true
		}
		b.ctx.Obs.Emit(obs.EvReadRetry, spec.QID, page, int64(attempt))
		if spec.Ctl == nil {
			panic(fmt.Sprintf("exec: read of %v page %d failed without fault control: %v",
				f.ID(), page, err))
		}
		if attempt+1 >= pol.MaxAttempts || spec.aborted() {
			spec.Ctl.Cancel(err)
			return buffer.Handle{}, false
		}
		backoff := pol.BackoffFor(attempt)
		b.ctx.Obs.Emit(obs.EvRetryBackoff, spec.QID, page, int64(backoff))
		wp.Sleep(backoff)
	}
}

// await parks the worker on s until it is notified, counting the wait as
// I/O wait: what a worker waits for there is a read.
func (b *cpuBudget) await(wp *sim.Proc, s *sim.Signal) {
	t0 := b.ctx.Env.Now()
	wp.Await(s)
	b.blocked(t0)
}

// blocked counts the time since t0 as I/O wait.
func (b *cpuBudget) blocked(t0 sim.Time) {
	d, pre := b.since(t0)
	b.io += d
	b.preIO += pre
}

// prefetch issues an asynchronous read for page unless it is already
// present or in flight, charging the issue cost as new debt, and puts the
// read in the set reads. The settle happens before the issue so the read
// enters the device queue at the row-at-a-time schedule's instant. A
// governed plan that prefetches passed its gate where it started
// (admitDeep).
func (b *cpuBudget) prefetch(wp *sim.Proc, f *disk.File, page int64, reads *sim.Any) {
	if b.ctx.Pool.Contains(f, page) {
		return
	}
	b.settle(wp)
	if !b.ctx.Pool.Contains(f, page) { // the settle may have let another read it
		b.ctx.Pool.ReadAhead(f, page, 1, false, reads.Hook())
	}
	b.charge(b.ctx.Costs.PerPrefetch)
}

// useCPU charges serialized driver-side work (sort stages, merges of
// per-worker or per-shard partials) immediately — there is no batching
// opportunity on the driver, and charging through one helper keeps the
// package's CPU accounting greppable.
func useCPU(p *sim.Proc, ctx *Context, d sim.Duration) {
	p.Use(ctx.CPU, d)
}
