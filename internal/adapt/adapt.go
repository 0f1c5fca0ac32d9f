// Package adapt is the engine's feedback layer: a per-query controller
// that moves a running scan's worker count at batch boundaries to the
// degree the optimizer's own prices favour — under the degree cap, the
// band's beneficial depth, buffer-pool pressure and broker slack
// (implicitly, through what Lease.Grow will grant) — plus a speculative
// prefetcher that pre-issues I/O runs derived from plan structure, gated by
// a confidence/pool-budget check and canceled on misprediction.
//
// The paper fixes degree and prefetch distance at plan time from the
// calibrated QDTT band, and §4.3 re-prices a query when the queue depth
// available to it changes. The controller is that re-pricing done
// mid-flight: it starts at the plan's degree, and each window it moves the
// fleet only to a degree the plan's own price list says is at least
// cost.MinGain cheaper — growing through the broker lease (credits
// re-leased mid-flight), shrinking through the executor's normal governed
// teardown. A standalone query's plan is already the cheapest degree, so
// it holds; a session query planned under a fair share grows when freed
// credits make a deeper degree pay.
//
// The controller implements exec.Tuner. It is strictly per-query state
// driven from simulation context; nothing here runs its own processes or
// schedules events, so a system with adaptivity disabled has no adapt
// machinery anywhere near its event stream.
package adapt

import (
	"sort"

	"pioqo/internal/buffer"
	"pioqo/internal/cost"
	"pioqo/internal/disk"
	"pioqo/internal/obs"
	"pioqo/internal/sim"
)

// Lease is the slice of a broker lease the controller works through: Grow
// re-leases free credits mid-flight, and PoolPages is the buffer-pool
// reservation granted with it, read once the scan has passed its gate. A
// nil Lease means the query is ungoverned (standalone execution): growth is
// bounded only by the degree cap, and signals budget against the whole pool.
type Lease interface {
	Grow(n int) int
	PoolPages() int
}

// Price is the optimizer's predicted runtime, in µs, of the query's plan
// run at one degree.
type Price struct {
	Degree int
	Micros float64
}

// Config wires one controller to its query's signals.
type Config struct {
	Env *sim.Env

	// Pool supplies the pressure signal (pinned frames versus the share)
	// and carries speculative prefetch issue and cancellation.
	Pool *buffer.Pool

	// DepthProbe returns the device's cumulative queue-depth time-integral
	// (device.Metrics.DepthIntegral); the controller differentiates it into
	// the sustained depth over each decision window, which gates
	// speculation. Nil disables the depth signal.
	DepthProbe func() float64

	// QueueProbe returns the device's instantaneous read queue depth
	// (device.Metrics.Outstanding). Speculation consults it at offer time:
	// a device already working past half the beneficial depth has no idle
	// capacity for out-of-band runs. Nil disables the gate.
	QueueProbe func() int

	// Lease, when set, sources credits for every grow step — the controller
	// never raises its target beyond what the lease granted — and its pool
	// reservation is the share pressure and the speculation budget derive
	// from.
	Lease Lease

	// Degree is the plan's degree, where the fleet starts. Max caps
	// growth — the executor sizes per-worker state against it.
	Degree, Max int

	// Prices is the plan's method and prefetch priced at each degree of
	// the optimizer's grid, in any order. A fleet between grid degrees
	// pays the price of the grid degree below it. Empty means no move is
	// priced: the controller only sheds.
	Prices []Price

	// Beneficial is the band's beneficial queue depth (the broker's
	// calibrated credit supply). Growth never targets beyond it: depth past
	// the beneficial point buys no throughput by the paper's own model.
	// 0 means unknown (no cap from this signal).
	Beneficial int

	// SpecBudget caps outstanding speculative pages; default one eighth of
	// the pool share, at least 16.
	SpecBudget int

	// Obs records the controller's decisions, attributed to QID, and the
	// adapt.* counters.
	Obs *obs.Registry
	QID int64
}

// interval is the virtual time between controller decisions.
const interval = 250 * sim.Microsecond

// Controller is the per-query feedback controller. It implements
// exec.Tuner; all calls come from simulation context, which is
// host-serialized, so plain fields suffice.
type Controller struct {
	cfg    Config
	target int

	// Decision window: the mean device queue depth over the last one
	// gates speculation.
	started       bool
	lastEval      sim.Time
	lastDepth     float64
	lastSustained float64

	// Speculation ledger.
	specOut     map[specKey]*disk.File
	specHits    int64
	specDropped int64
}

type specKey struct {
	file disk.FileID
	page int64
}

// NewController seeds a controller at the plan's degree and emits the
// adapt.seed event.
func NewController(cfg Config) *Controller {
	c := &Controller{cfg: cfg}
	c.target = min(max(cfg.Degree, 1), c.MaxDegree())
	c.specOut = make(map[specKey]*disk.File)
	cfg.Obs.Emit(obs.EvAdaptSeed, cfg.QID, int64(c.target), int64(cfg.Degree))
	return c
}

// Target reports the current target degree.
func (c *Controller) Target() int { return c.target }

// MaxDegree implements exec.Tuner.
func (c *Controller) MaxDegree() int {
	if c.cfg.Max < 1 {
		return 1
	}
	return c.cfg.Max
}

// capDegree is the highest degree the controller may target: the hard cap
// and the band's beneficial depth.
func (c *Controller) capDegree() int {
	cap := c.MaxDegree()
	if c.cfg.Beneficial > 0 && c.cfg.Beneficial < cap {
		cap = c.cfg.Beneficial
	}
	return cap
}

// share is the pool budget signals are computed against: the lease's
// reservation, or the whole pool.
func (c *Controller) share() int {
	if c.cfg.Lease != nil {
		if n := c.cfg.Lease.PoolPages(); n > 0 {
			return n
		}
	}
	if c.cfg.Pool != nil {
		return c.cfg.Pool.Capacity()
	}
	return 0
}

// price is the predicted runtime at degree d: the price of the deepest
// grid degree not above d, 0 when none is.
func (c *Controller) price(d int) float64 {
	at, micros := 0, 0.0
	for _, p := range c.cfg.Prices {
		if p.Degree <= d && p.Degree > at {
			at, micros = p.Degree, p.Micros
		}
	}
	return micros
}

// Tick implements exec.Tuner: called by scan workers at batch boundaries.
// At most one decision per interval; between decisions it returns the
// standing target.
func (c *Controller) Tick(int) int {
	now := c.cfg.Env.Now()
	if !c.started {
		c.started = true
		c.lastEval = now
		if c.cfg.DepthProbe != nil {
			c.lastDepth = c.cfg.DepthProbe()
		}
		return c.target
	}
	dt := sim.Duration(now - c.lastEval)
	if dt < interval {
		return c.target
	}
	if c.cfg.DepthProbe != nil {
		d := c.cfg.DepthProbe()
		c.lastSustained = (d - c.lastDepth) / float64(dt)
		c.lastDepth = d
	}
	c.lastEval = now
	c.decide()
	return c.target
}

// decide is one controller decision. Order matters: answer pressure, honor
// the beneficial-depth cap, then move to the cheapest priced degree under
// it if that is worth a move.
func (c *Controller) decide() {
	// Pinned frames crowding the scan's share force a shrink whatever the
	// prices say.
	if share := c.share(); share > 0 && c.cfg.Pool != nil &&
		c.cfg.Pool.Pinned()*2 > share && c.target > 1 {
		c.move(c.target / 2)
		return
	}

	// A target beyond what the band's calibrated depth-throughput curve
	// can absorb sheds down to the cap.
	cap := c.capDegree()
	if c.target > cap {
		c.move(cap)
		return
	}

	// The cheapest priced degree under the cap, ties to the shallower. It
	// must beat the standing target by the same margin that makes a deeper
	// queue worth supplying, or the fleet holds.
	cur := c.price(c.target)
	best, bestMicros := c.target, cur
	for _, p := range c.cfg.Prices {
		if p.Degree <= cap && (p.Micros < bestMicros || p.Micros == bestMicros && p.Degree < best) {
			best, bestMicros = p.Degree, p.Micros
		}
	}
	if cur <= 0 || bestMicros > cur*(1-cost.MinGain) {
		return
	}
	if best < c.target {
		c.move(best)
		return
	}
	step := best - c.target
	if c.cfg.Lease != nil {
		step = c.cfg.Lease.Grow(step)
	}
	c.move(c.target + step)
}

// move retargets the fleet.
func (c *Controller) move(to int) {
	if to == c.target {
		return
	}
	prev := c.target
	c.target = to
	if to > prev {
		c.cfg.Obs.Emit(obs.EvAdaptGrow, c.cfg.QID, int64(to), int64(prev))
	} else {
		c.cfg.Obs.Emit(obs.EvAdaptShrink, c.cfg.QID, int64(to), int64(prev))
	}
}

// specBudget is the outstanding-speculative-pages cap.
func (c *Controller) specBudget() int {
	if c.cfg.SpecBudget > 0 {
		return c.cfg.SpecBudget
	}
	b := c.share() / 8
	if b < 16 {
		b = 16
	}
	return b
}

// confidence is the speculation hit rate, optimistic before evidence.
func (c *Controller) confidence() float64 {
	return float64(c.specHits+1) / float64(c.specHits+c.specDropped+1)
}

// SpeculateRun implements exec.Tuner: pre-issue the offered run if the
// confidence and pool-budget gates pass. Pages already resident extend the
// run for free; absent pages charge the budget and join the outstanding
// ledger for hit accounting and cancellation.
//
// A device already sustaining half its beneficial queue depth declines the
// offer: speculation only buys latency when the device has idle capacity to
// absorb it, and on a saturated sequential stream (an HDD full scan behind
// its readahead) out-of-band runs just fragment the reads the scan was
// going to issue anyway.
func (c *Controller) SpeculateRun(f *disk.File, start int64, count int) {
	if c.cfg.Pool == nil || count <= 0 || c.confidence() < 0.5 {
		return
	}
	if b := c.cfg.Beneficial; b > 0 {
		if c.lastSustained >= float64(b)/2 {
			return
		}
		if c.cfg.QueueProbe != nil && c.cfg.QueueProbe() >= (b+1)/2 {
			return
		}
	}
	room := c.specBudget() - len(c.specOut)
	if room <= 0 {
		return
	}
	// Walk the run, collecting absent pages until the budget is spent; the
	// issue below covers exactly the walked prefix.
	issue := 0
	tracked := 0
	for i := int64(0); i < int64(count); i++ {
		if c.cfg.Pool.Contains(f, start+i) {
			issue = int(i + 1)
			continue
		}
		if tracked >= room {
			break
		}
		tracked++
		issue = int(i + 1)
	}
	if tracked == 0 {
		return
	}
	// Record the absent pages *before* issuing — afterwards they are all
	// resident and indistinguishable from demand readahead.
	added := make([]int64, 0, tracked)
	for i := int64(0); i < int64(issue); i++ {
		pg := start + i
		if c.cfg.Pool.Contains(f, pg) {
			continue
		}
		k := specKey{f.ID(), pg}
		if _, dup := c.specOut[k]; dup {
			continue
		}
		if len(added) >= tracked {
			break
		}
		c.specOut[k] = f
		added = append(added, pg)
	}
	if len(added) == 0 {
		return
	}
	c.cfg.Pool.PrefetchRunTrimmed(f, start, issue)
	c.cfg.Obs.Emit(obs.EvAdaptSpecIssue, c.cfg.QID, start, int64(len(added)))
}

// NoteFetch implements exec.Tuner: a demand fetch of a speculated page is a
// hit — the guess was right and the page was already moving (or resident)
// when the worker asked.
func (c *Controller) NoteFetch(f *disk.File, page int64) {
	if len(c.specOut) == 0 {
		return
	}
	k := specKey{f.ID(), page}
	if _, ok := c.specOut[k]; ok {
		delete(c.specOut, k)
		c.specHits++
		c.cfg.Obs.Counter(obs.MetricAdaptSpecHits).Inc()
	}
}

// FinishScan implements exec.Tuner: cancellation on misprediction. Every
// still-outstanding speculative page is dropped from the pool (unpinned,
// loaded frames evict immediately; in-flight reads complete into frames that
// join the LRU's head, never having been pinned, and age out from there) and
// charged against the confidence gate. Iteration is
// sorted so cancellation order — and therefore pool state — is
// deterministic for identical runs.
func (c *Controller) FinishScan() {
	if len(c.specOut) == 0 {
		return
	}
	keys := make([]specKey, 0, len(c.specOut))
	for k := range c.specOut {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].page < keys[j].page
	})
	for _, k := range keys {
		c.cfg.Pool.Discard(c.specOut[k], k.page)
	}
	dropped := int64(len(keys))
	c.specDropped += dropped
	c.cfg.Obs.Emit(obs.EvAdaptSpecCancel, c.cfg.QID, dropped, c.specHits)
	c.specOut = make(map[specKey]*disk.File)
}

// SpecOutstanding reports the speculation ledger's outstanding page count —
// zero after FinishScan, which tests assert alongside the pool's pin
// ledger.
func (c *Controller) SpecOutstanding() int { return len(c.specOut) }

// SpecHits reports how many speculated pages were demand-fetched.
func (c *Controller) SpecHits() int64 { return c.specHits }
