// Package broker is the engine's shared resource-governance layer: a
// virtual-time broker that owns the device queue-depth credits, buffer-pool
// page reservations, and CPU-worker shares that concurrent queries divide
// between them, with an admission queue in front.
//
// The paper's §4.3 closes with the observation that a QDTT-aware optimizer
// must plan each concurrent query under a *lower* queue depth. Before this
// package that arithmetic was scattered: ExecuteConcurrent computed a
// one-shot `beneficial / n` split, the optimizer consumed it as an opaque
// QueueBudget, and the executor clamped its pool pinning independently.
// The broker centralises it:
//
//   - The total credit supply is the device's maximum beneficial queue
//     depth (cost.QDTT.MaxBeneficialDepth over the whole-device band: the
//     deepest step of the whole calibrated curve that still gains) —
//     depth beyond it buys no throughput, so handing it out buys nothing.
//   - A query is planned once, under the FairShare of the supply it could
//     expect at submit time, and enqueues with a demand: the queue depth
//     that plan was priced at. Dispatch has one rule: in FIFO order, each
//     lease is granted its whole demand (capped at the supply) once that
//     many credits are free, plus a proportional buffer-pool page
//     reservation, capped at what the pool has left unreserved. The grant
//     is the depth the plan priced, so the plan admitted is the plan
//     submitted — one-credit point lookups run side by side, and a deep
//     scan waits for its depth instead of being split.
//   - The grant gates a query's first device read, not its start: the
//     query runs at once, and its executor waits on the lease (Admit) only
//     where it would issue a read. A query whose pages are resident, or
//     being read for an earlier query, finishes without a grant; a miss
//     before the grant waits on the buffer pool's page intent, which the
//     first granted query that wants the page reads for every waiter
//     (buffer.Gate is the lease as the pool sees it). Plans that put more
//     than one read in flight — block readahead, per-worker prefetch, a
//     parallel or elastic fleet — Admit before they start.
//   - The executor reports workers starting and exiting through the lease;
//     a winding-down query progressively returns credits it can no longer
//     use, and a completed query returns the rest — either way the broker
//     re-dispatches the queue under the credits actually available.
//   - The device reports sustained queue depth back through a probe; when
//     the sustained depth runs well below the credits out on loan the
//     broker extends a bounded slack, re-brokering budgets that in-flight
//     queries are provably not using.
//
// Everything runs in virtual time on the sim kernel: admission order is
// FIFO, dispatch is synchronous state manipulation, and reruns are
// bit-identical.
package broker

import (
	"pioqo/internal/obs"
	"pioqo/internal/sim"
)

// DepthModel is the slice of the calibrated cost model the broker needs:
// the largest queue depth that still improves throughput on a band by
// cost.MinGain. It is satisfied by *cost.QDTT.
type DepthModel interface {
	MaxBeneficialDepth(band int64) int
}

// Config sizes a Broker. Model and Band are required; everything else has
// a sensible zero value.
type Config struct {
	Env *sim.Env

	// Model prices queue depth; Band is the band (in pages) the credit
	// supply is computed over — normally the whole device.
	Model DepthModel
	Band  int64

	// PoolPages is the buffer-pool capacity the broker reserves shares of.
	// Zero disables pool reservations (leases carry no page budget).
	PoolPages int

	// Workers is the CPU-worker share supply, normally the core count. It
	// is tracked (workers_in_use) rather than enforced — the sim CPU
	// resource arbitrates actual cores — so schedulers and dashboards see
	// worker pressure next to credit pressure.
	Workers int

	// DepthProbe, when set, returns the cumulative time-integral of the
	// device's queue depth (device.Metrics.DepthIntegral). The broker
	// derives the sustained depth over its observation window from it.
	DepthProbe func() float64

	// DegradeProbe, when set, reports the device's current degradation as a
	// channel-loss fraction in [0, 1] (fault.Injector.Degradation). While
	// the device reports sustained degradation the broker shrinks its credit
	// supply proportionally, so queries planned and admitted meanwhile run
	// at a queue depth the degraded device can still turn into throughput.
	// 0 (or nil) means healthy.
	DegradeProbe func() float64

	// Obs, when set, records one event per admission decision — enqueue,
	// grant, credit reclamation and growth, lease release, and
	// degraded-supply dispatch — and the broker.* instruments.
	Obs *obs.Registry
}

// Broker owns the credit supply and the admission queue. It is not safe
// for host-level concurrent use; all calls must come from simulation
// context (process or event) or between Env.Run calls, like every other
// engine structure.
type Broker struct {
	env *sim.Env
	cfg Config

	total int // credit supply: the device's max beneficial depth
	free  int // credits not currently out on loan (can dip below 0 under slack)
	slack int // credits extended beyond total on device-feedback evidence

	poolInUse int // buffer-pool pages reserved by admitted leases

	queue  []*Lease // admission FIFO
	active []*Lease // admitted, not yet released

	// dispatchScheduled coalesces dispatch work into one zero-delay event
	// per instant, so every query enqueued at the same virtual time is
	// brokered together — the first of a batch must not be mistaken for a
	// sole query just because it arrived a few host instructions earlier.
	dispatchScheduled bool

	// Device-feedback observation window.
	probeBase float64
	probeAt   sim.Time

	// obs records admission decisions; the instruments are its (all nil
	// without one, and nil instruments record nothing).
	obs          *obs.Registry
	creditsInUse *obs.Gauge
	workersGauge *obs.Gauge
	waitHist     *obs.Histogram
}

// admissionWaitBucketsUs are histogram edges for admission waits, in
// microseconds: immediate grants through multi-query queueing delays.
var admissionWaitBucketsUs = []float64{0, 100, 1000, 10000, 100000, 1e6, 1e7}

// New builds a broker over cfg. The credit supply is computed once, from
// the calibrated model — the single place in the engine allowed to do
// queue-budget arithmetic (the max-beneficial-depth row of the root
// boundaries_test.go rejects every other call site).
func New(cfg Config) *Broker {
	if cfg.Env == nil {
		panic("broker: Config.Env is nil")
	}
	if cfg.Model == nil {
		panic("broker: Config.Model is nil")
	}
	b := &Broker{env: cfg.Env, cfg: cfg}
	b.total = max(cfg.Model.MaxBeneficialDepth(cfg.Band), 1)
	b.free = b.total
	b.obs = cfg.Obs
	b.obs.Gauge(obs.MetricBrokerCreditsTotal).Set(float64(b.total))
	b.creditsInUse = b.obs.Gauge(obs.MetricBrokerCreditsInUse)
	b.workersGauge = b.obs.Gauge(obs.MetricBrokerWorkersInUse)
	b.waitHist = b.obs.Histogram(obs.MetricBrokerAdmissionWaitUs, admissionWaitBucketsUs)
	return b
}

// Total reports the credit supply — the device's maximum beneficial queue
// depth over the configured band.
func (b *Broker) Total() int { return b.total }

// InUse reports the credits currently out on loan.
func (b *Broker) InUse() int { return b.total + b.slack - b.free }

// PoolInUse reports the buffer-pool pages currently reserved by admitted
// leases. After every lease is released it is zero; Drain-style teardown
// asserts that to catch reservation leaks.
func (b *Broker) PoolInUse() int { return b.poolInUse }

// Waiting reports how many queries sit in the admission queue.
func (b *Broker) Waiting() int { return len(b.queue) }

// Active reports how many admitted leases have not been released.
func (b *Broker) Active() int { return len(b.active) }

// SplitCredits divides total evenly over n parties, distributing the
// remainder one credit at a time from the front — no credit is dropped,
// fixing the integer-division loss of the pre-broker `total / n` split.
// Every share is at least 1 even when parties outnumber credits.
func SplitCredits(total, n int) []int {
	if n <= 0 {
		return nil
	}
	shares := make([]int, n)
	base, rem := total/n, total%n
	for i := range shares {
		shares[i] = base
		if i < rem {
			shares[i]++
		}
		if shares[i] < 1 {
			shares[i] = 1
		}
	}
	return shares
}

// FairShare reports the even-split budget a query joining now could expect:
// the total divided over every known party (active + waiting + the caller),
// SplitCredits' first share in closed form. A sole query on an idle broker
// expects an unbounded lease (0). The engine plans every query once, before
// it enqueues, under it; the lease then asks for the depth that plan was
// priced at, and dispatch grants it whole.
func (b *Broker) FairShare() int {
	supply := b.degradedSupply()
	parties := len(b.active) + len(b.queue) + 1
	if parties == 1 {
		if supply < b.total {
			return supply // degraded: even a sole query plans bounded
		}
		return 0
	}
	return max(1, (supply+parties-1)/parties)
}

// degradedSupply reports the credit supply dispatch may hand out right now:
// the calibrated total, shrunk by the device's reported channel loss while
// degradation is sustained. Never below 1.
func (b *Broker) degradedSupply() int {
	if b.cfg.DegradeProbe == nil {
		return b.total
	}
	loss := b.cfg.DegradeProbe()
	if loss <= 0 {
		return b.total
	}
	if loss > 1 {
		loss = 1
	}
	t := int(float64(b.total)*(1-loss) + 0.5)
	if t < 1 {
		t = 1
	}
	return t
}

// Lease is one query's resource grant: admission ticket, queue-depth
// credit budget, and buffer-pool page reservation. It also implements the
// executor's worker-governance hook (exec.Governor), returning credits as
// the query's worker fleet winds down.
type Lease struct {
	b *Broker

	// qid attributes this lease's events to its query in the engine event
	// log; obs.NoQuery for leases enqueued without an id.
	qid int64

	demand int // credits the plan was priced at; ≤ 0 asks for the whole supply

	admitted bool
	gated    bool // the query passed its gate (Admit)
	released bool
	shared   bool // admitted via AdmitShared: rides a circulating scan
	granted  int  // credit grant at admission; 0 = unbounded (sole query)
	held     int  // credits still debited from the broker
	pool     int  // buffer-pool page reservation

	workers int // live workers right now
	peak    int // high-water worker count, for proportional reclamation

	enqueuedAt sim.Time
	admittedAt sim.Time

	grant *sim.Completion // fires at admission; OnAdmit hooks ride it
}

// Enqueue registers a query for admission and returns its lease. The
// demand is the credit grant the query waits for, capped at the supply
// (≤ 0 = the whole supply). Admission is FIFO; call Admit from process
// context to block until granted.
func (b *Broker) Enqueue(demand int) *Lease {
	return b.EnqueueQuery(demand, obs.NoQuery)
}

// EnqueueQuery is Enqueue with a query id attached: every event this lease
// records is attributed to qid.
func (b *Broker) EnqueueQuery(demand int, qid int64) *Lease {
	l := &Lease{b: b, qid: qid, demand: demand,
		enqueuedAt: b.env.Now(), grant: sim.NewCompletion(b.env)}
	b.obs.Emit(obs.EvAdmissionEnqueue, l.qid, int64(demand), 0)
	b.queue = append(b.queue, l)
	b.scheduleDispatch()
	return l
}

// Shared reports whether the lease was admitted through AdmitShared —
// riding a live circulating scan rather than holding queue-depth credits.
func (l *Lease) Shared() bool { return l.shared }

// AdmitShared converts a still-queued lease into an immediate zero-credit
// admission: the query's table scan will attach to a circulating scan whose
// producer leases the readahead depth itself, in FIFO turn, so granting it
// queue-depth credits — or making it wait for them — would price device
// work it will never issue. The lease leaves the FIFO out of turn, is
// granted no credits and no pool reservation (the producer pins under its
// own budget), and its grant fires at once. Calling it on an
// already-admitted lease only marks it shared; on a released lease it is a
// bug, as with any resource.
func (b *Broker) AdmitShared(l *Lease) {
	if l.released {
		panic("broker: AdmitShared on a released lease")
	}
	l.shared = true
	b.obs.Counter(obs.MetricBrokerSharedAdmissions).Inc()
	if l.admitted {
		return
	}
	for i, q := range b.queue {
		if q == l {
			b.queue = append(b.queue[:i], b.queue[i+1:]...)
			break
		}
	}
	b.admit(l, 0)
}

// Admit blocks p until the lease has been granted: the gate in front of a
// query's device reads (and a circulating producer's). A lease already
// granted — a sole query's, whose grant precedes its process — returns
// without yielding, in zero virtual time and zero events. Either way the
// query has now passed its gate (Gated).
func (l *Lease) Admit(p *sim.Proc) {
	p.Wait(l.grant)
	l.gated = true
}

// Gated reports whether the query has passed its gate: it waited for its
// grant, or went to the device holding it. A query that finished on pages
// resident or read for others never does, whenever its grant came.
func (l *Lease) Gated() bool { return l.gated }

// Await is Admit under its earlier name.
//
// Deprecated: use Admit. Kept for the frozen bench/ suite.
func (l *Lease) Await(p *sim.Proc) { l.Admit(p) }

// Admitted reports whether the lease has been granted. With OnAdmit and
// Admit it is the buffer.Gate the pool parks a query's page intents on.
func (l *Lease) Admitted() bool { return l.admitted }

// OnAdmit registers fn to run, in event context, when the lease is granted
// (at once if it already is). A lease released before its grant never runs
// its hooks.
func (l *Lease) OnAdmit(fn func()) { l.grant.OnFire(fn) }

// Budget reports the leased queue-depth budget: the credit grant, or 0 for
// an unbounded lease (a sole query on an idle device plans exactly as it
// would with no broker).
func (l *Lease) Budget() int { return l.granted }

// PoolPages reports the lease's buffer-pool page reservation (0 means
// ungoverned — the executor's own whole-pool clamps apply). It is set at the
// grant, so the executor reads it after its gate.
func (l *Lease) PoolPages() int { return l.pool }

// Wait reports how long the query sat in the admission queue.
func (l *Lease) Wait() sim.Duration {
	if !l.admitted {
		return sim.Duration(l.b.env.Now() - l.enqueuedAt)
	}
	return sim.Duration(l.admittedAt - l.enqueuedAt)
}

// StartWorker implements exec.Governor: one scan worker began running.
func (l *Lease) StartWorker() {
	l.workers++
	if l.workers > l.peak {
		l.peak = l.workers
	}
	l.b.workersGauge.Add(1)
}

// EndWorker implements exec.Governor: one scan worker exited. A worker
// that exits never rejoins its phase, so the lease shrinks its held
// credits proportionally to the workers still running and the broker
// re-dispatches queued queries under the recovered budget. Unbounded
// leases skip reclamation.
func (l *Lease) EndWorker() {
	l.workers--
	l.b.workersGauge.Add(-1)
	if l.released || l.granted == 0 || l.peak <= 0 {
		return
	}
	target := (l.granted*l.workers + l.peak - 1) / l.peak // ceil share
	if l.workers > 0 && target < 1 {
		target = 1
	}
	if target < l.held {
		n := l.held - target
		l.held = target
		l.b.obs.Emit(obs.EvCreditsReclaim, l.qid, int64(n), int64(l.held))
		l.b.reclaim(n)
	}
}

// Grow asks the broker for up to n more queue-depth credits mid-flight and
// returns how many were granted: an adaptive query grows past the depth its
// plan was priced at this way. Growth comes only from credits sitting free
// *after* the degradation reserve, and only while no query waits in the
// admission FIFO: queued queries have first claim on free supply, so an
// in-flight upgrade can never starve admission. The grant raises the
// lease's held credits (EndWorker's proportional reclamation then winds the
// larger grant down as the grown fleet retires) and extends the buffer-pool
// reservation to the share the new grant would have been admitted with. An
// unbounded lease (sole query, grant 0) already owns the whole supply, so
// Grow reports the full ask without touching the books. Shared riders never
// grow.
func (l *Lease) Grow(n int) int {
	if n <= 0 || l.released || !l.admitted || l.shared {
		return 0
	}
	if l.granted == 0 {
		return n // unbounded: the whole supply is already this query's
	}
	b := l.b
	if len(b.queue) > 0 {
		return 0
	}
	supply := b.degradedSupply()
	reserve := b.total - supply
	avail := b.free - reserve
	if avail < 1 {
		return 0
	}
	n = min(n, avail)
	b.free -= n
	l.granted += n
	l.held += n
	if b.cfg.PoolPages > 0 {
		if pool := b.reservation(l.granted, l.pool); pool > l.pool {
			b.poolInUse += pool - l.pool
			l.pool = pool
		}
	}
	b.obs.Emit(obs.EvLeaseGrow, l.qid, int64(n), int64(l.granted))
	b.creditsInUse.Set(float64(b.InUse()))
	return n
}

// Release returns every credit the lease still holds and re-dispatches.
// Releasing twice is a bug, as with any resource.
func (l *Lease) Release() {
	if l.released {
		panic("broker: lease released twice")
	}
	l.released = true
	l.b.obs.Emit(obs.EvLeaseRelease, l.qid, int64(l.held), int64(l.pool))
	if !l.admitted {
		// Withdrawn before admission: just drop out of the queue.
		for i, q := range l.b.queue {
			if q == l {
				l.b.queue = append(l.b.queue[:i], l.b.queue[i+1:]...)
				break
			}
		}
		return
	}
	for i, a := range l.b.active {
		if a == l {
			l.b.active = append(l.b.active[:i], l.b.active[i+1:]...)
			break
		}
	}
	// The pool reservation comes home with the lease — including when the
	// query errored between admission and its first worker start, the leak
	// this deferred-release path exists to close.
	if l.pool > 0 {
		l.b.poolInUse -= l.pool
		l.pool = 0
	}
	if l.held > 0 {
		l.b.reclaim(l.held)
		l.held = 0
	} else {
		l.b.scheduleDispatch()
	}
}

// reclaim returns n credits to the pool and re-dispatches the queue.
func (b *Broker) reclaim(n int) {
	b.free += n
	// Returned slack retires before it re-enters circulation: the supply
	// reverts toward the calibrated total as over-extended credit comes home.
	if b.slack > 0 && b.free > b.total {
		retire := b.free - b.total
		if retire > b.slack {
			retire = b.slack
		}
		b.slack -= retire
		b.free -= retire
	}
	b.creditsInUse.Set(float64(b.InUse()))
	b.scheduleDispatch()
}

// scheduleDispatch queues one dispatch pass at the current instant.
func (b *Broker) scheduleDispatch() {
	if b.dispatchScheduled {
		return
	}
	b.dispatchScheduled = true
	b.env.Schedule(0, b.dispatch)
}

// feedbackSlack consults the device probe: when the sustained queue depth
// over the observation window runs below the credits out on loan, the
// difference is capacity the in-flight queries are provably not using, and
// the broker may extend up to a quarter of the supply as slack to waiting
// queries. The window resets at every reading, so the evidence is recent.
func (b *Broker) feedbackSlack() int {
	if b.cfg.DepthProbe == nil {
		return 0
	}
	now := b.env.Now()
	integral := b.cfg.DepthProbe()
	window := now - b.probeAt
	if window <= 0 {
		return 0
	}
	sustained := (integral - b.probeBase) / float64(window)
	b.probeBase = integral
	b.probeAt = now
	idle := float64(b.InUse()) - sustained
	if idle < 1 {
		return 0
	}
	ext := int(idle)
	if lim := b.total / 4; ext > lim {
		ext = lim
	}
	if ext <= b.slack {
		return 0
	}
	return ext - b.slack
}

// dispatch admits queued queries in FIFO order, each at its need: its
// demand, capped at the supply. A head whose need is more than the free
// credits waits, and everyone behind it waits its turn; a sole query on an
// idle broker gets an unbounded lease.
func (b *Broker) dispatch() {
	b.dispatchScheduled = false
	degradeLogged := false
	for len(b.queue) > 0 {
		// A degraded device shrinks the supply: the difference between the
		// calibrated total and the degraded supply stays in reserve —
		// dispatch admits against what the device can actually absorb.
		supply := b.degradedSupply()
		reserve := b.total - supply
		if reserve > 0 && !degradeLogged {
			// One degraded-supply event per dispatch pass: dispatch may admit
			// several queries under the same shrunken supply.
			b.obs.Emit(obs.EvSupplyDegrade, obs.NoQuery, int64(supply), int64(b.total))
			degradeLogged = true
		}
		l := b.queue[0]
		need := supply
		if l.demand > 0 && l.demand < need {
			need = l.demand
		}
		if len(b.active) == 0 && len(b.queue) == 1 {
			if reserve == 0 {
				need = 0 // sole query, idle device: unbounded
			}
			b.queue = b.queue[1:]
			b.admit(l, need)
			continue
		}
		if reserve == 0 {
			// Slack extension needs a healthy device: degradation evidence
			// and idle-depth evidence point opposite ways.
			if grow := b.feedbackSlack(); grow > 0 {
				b.slack += grow
				b.free += grow
			}
		}
		if b.free-reserve < need {
			return
		}
		b.queue = b.queue[1:]
		b.admit(l, need)
	}
}

// reservation is the pool share a lease holding grant credits is entitled
// to — the pool in proportion to the grant over the calibrated supply —
// capped at what the pool has left besides the held pages the lease already
// reserves. A grant funded by feedback slack pushes the credits out past the
// supply, and without the cap its reservation would overshoot the pool.
func (b *Broker) reservation(grant, held int) int {
	return min(b.cfg.PoolPages*grant/b.total, held+b.cfg.PoolPages-b.poolInUse)
}

// admit grants a lease. A grant of 0 is the unbounded lease.
func (b *Broker) admit(l *Lease, grant int) {
	b.free -= grant
	l.granted = grant
	l.held = grant
	l.admitted = true
	l.admittedAt = b.env.Now()
	if b.cfg.PoolPages > 0 && grant > 0 {
		l.pool = b.reservation(grant, 0)
		b.poolInUse += l.pool
	}
	b.active = append(b.active, l)
	b.obs.Emit(obs.EvAdmissionGrant, l.qid, int64(grant), int64(l.Wait()))
	b.creditsInUse.Set(float64(b.InUse()))
	b.waitHist.Observe(l.Wait().Micros())
	l.grant.Fire()
}
