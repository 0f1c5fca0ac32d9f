package exec

import (
	"fmt"

	"pioqo/internal/buffer"
	"pioqo/internal/disk"
	"pioqo/internal/obs"
	"pioqo/internal/obs/event"
	"pioqo/internal/sim"
)

// cpuBudget batches a worker's CPU accounting: per-row and per-page costs
// accrue as debt and are charged to the simulated CPU in one merged
// Proc.Use at batch boundaries, instead of one kernel round-trip per row.
//
// The discipline that keeps batching honest is *settle before any device
// interaction*: debt is flushed immediately before an operation that could
// touch the device or block — fetching a page that is not fully loaded
// (miss or join of an in-flight read), issuing a prefetch, waking the
// full-scan block prefetcher — and when the worker finishes. Because
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
// serialized driver work); scripts/verify.sh lints for stray Proc.Use
// calls against the CPU resource elsewhere in the package.
type cpuBudget struct {
	ctx  *Context
	m    *meter // optional span metering; nil for unmetered workers
	debt sim.Duration
}

// newBudget returns a budget charging through m's meter when non-nil.
func newBudget(ctx *Context, m *meter) *cpuBudget {
	return &cpuBudget{ctx: ctx, m: m}
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
	if b.m != nil {
		b.m.use(wp, d)
		return
	}
	wp.Use(b.ctx.CPU, d)
}

// fetchE pins a page, settling outstanding debt first whenever the request
// could touch the device or block (the page is absent, or present but its
// read is still in flight). Loaded pages pin without settling — that is
// where merging wins. A failed read returns the device's error for
// fetchRetry's policy to handle.
func (b *cpuBudget) fetchE(wp *sim.Proc, f *disk.File, page int64) (buffer.Handle, error) {
	if !b.ctx.Pool.Loaded(f, page) {
		b.settle(wp)
	}
	if b.m != nil {
		return b.m.fetchE(wp, f, page)
	}
	return b.ctx.Pool.FetchPageE(wp, f, page)
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
		h, err := b.fetchE(wp, f, page)
		if err == nil {
			if spec.Progress != nil {
				*spec.Progress++
			}
			if spec.Tune != nil {
				spec.Tune.NoteFetch(f, page)
			}
			return h, true
		}
		b.ctx.Log.Emit(event.EvReadRetry, spec.QID, page, int64(attempt))
		if b.ctx.Reg != nil {
			b.ctx.Reg.Counter(obs.MetricExecReadFaults).Inc()
		}
		if spec.Ctl == nil {
			panic(fmt.Sprintf("exec: read of %v page %d failed without fault control: %v",
				f.ID(), page, err))
		}
		if attempt+1 >= pol.MaxAttempts || spec.aborted() {
			spec.Ctl.Cancel(err)
			return buffer.Handle{}, false
		}
		backoff := pol.BackoffFor(attempt)
		b.ctx.Log.Emit(event.EvRetryBackoff, spec.QID, page, int64(backoff))
		wp.Sleep(backoff)
	}
}

// prefetch issues an asynchronous read for page unless it is already
// present or in flight, charging the issue cost as new debt. The settle
// happens before the issue so the read enters the device queue at the
// row-at-a-time schedule's instant.
func (b *cpuBudget) prefetch(wp *sim.Proc, f *disk.File, page int64) {
	if b.ctx.Pool.Contains(f, page) {
		return
	}
	b.settle(wp)
	b.ctx.Pool.Prefetch(f, page)
	b.charge(b.ctx.Costs.PerPrefetch)
}

// useCPU charges serialized driver-side work (index descents, sort stages,
// bulk hash costs) immediately — there is no batching opportunity on the
// driver, and charging through one helper keeps the package's CPU
// accounting greppable.
func useCPU(p *sim.Proc, ctx *Context, d sim.Duration) {
	p.Use(ctx.CPU, d)
}

// fetchE pins a page through the pool, attributing the blocked time to the
// worker's span; a failed fetch still counts its blocked time but not a
// fetched page.
func (m *meter) fetchE(wp *sim.Proc, f *disk.File, page int64) (buffer.Handle, error) {
	t0 := m.ctx.Env.Now()
	h, err := m.ctx.Pool.FetchPageE(wp, f, page)
	m.io += sim.Duration(m.ctx.Env.Now() - t0)
	if err == nil {
		m.pages++
	}
	return h, err
}

// use charges d against the CPU through the meter, attributing queueing
// and hold time to the worker's span.
func (m *meter) use(wp *sim.Proc, d sim.Duration) {
	t0 := m.ctx.Env.Now()
	wp.Use(m.ctx.CPU, d)
	m.cpu += sim.Duration(m.ctx.Env.Now() - t0)
}
