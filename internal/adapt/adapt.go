// Package adapt is the engine's feedback layer: a per-query controller
// that retunes a running scan's worker count at batch boundaries from live
// signals — sustained device queue depth versus the band's beneficial
// depth, broker slack (implicitly, through what Lease.Grow will grant),
// buffer-pool pressure, and observed pages per virtual millisecond — plus
// a speculative prefetcher that pre-issues I/O runs derived from plan
// structure, gated by a confidence/pool-budget check and canceled on
// misprediction.
//
// The paper fixes degree and prefetch distance at plan time from the
// calibrated QDTT band; this package retunes the degree mid-flight, in both
// directions: the controller hill-climbs the degree, securing every step
// above its admission grant (the depth its plan was priced at) through the
// broker lease (credits re-leased mid-flight) and shedding workers through
// the executor's normal governed teardown. An offline DOP model fit on
// calibrate sweep points (model.go) seeds the initial degree so the climb
// usually starts next to the optimum.
//
// The controller implements exec.Tuner. It is strictly per-query state
// driven from simulation context; nothing here runs its own processes or
// schedules events, so a system with adaptivity disabled has no adapt
// machinery anywhere near its event stream.
package adapt

import (
	"sort"

	"pioqo/internal/buffer"
	"pioqo/internal/disk"
	"pioqo/internal/obs"
	"pioqo/internal/sim"
)

// Grower is the slice of a broker lease the controller grows through:
// Lease.Grow re-leases free credits mid-flight. A nil Grower means the
// query is ungoverned (standalone execution) and growth is bounded only by
// the degree cap.
type Grower interface {
	Grow(n int) int
}

// Config wires one controller to its query's signals.
type Config struct {
	Env *sim.Env

	// Pool supplies the pressure signal (pinned frames versus the share)
	// and carries speculative prefetch issue and cancellation.
	Pool *buffer.Pool

	// PoolShare is the lease's page reservation; 0 budgets against the
	// whole pool. Pressure and the speculation budget derive from it.
	PoolShare int

	// DepthProbe returns the device's cumulative queue-depth time-integral
	// (device.Metrics.DepthIntegral); the controller differentiates it into
	// the sustained depth over each decision window. Nil disables the
	// depth signal.
	DepthProbe func() float64

	// QueueProbe returns the device's instantaneous read queue depth
	// (device.Metrics.Outstanding). Speculation consults it at offer time:
	// a device already working past half the beneficial depth has no idle
	// capacity for out-of-band runs. Nil disables the gate.
	QueueProbe func() int

	// Lease, when set, sources credits for every grow step. The controller
	// never raises its target beyond what the lease granted.
	Lease Grower

	// Initial is the seeded starting degree; Planned the statically planned
	// one (recorded in the adapt.seed event for attribution). Max caps
	// growth — the executor sizes per-worker state against it.
	Initial, Planned, Max int

	// Beneficial is the band's beneficial queue depth (the broker's
	// calibrated credit supply). Growth never targets beyond it: depth past
	// the beneficial point buys no throughput by the paper's own model.
	// 0 means unknown (no cap from this signal).
	Beneficial int

	// Interval is the minimum virtual time between controller decisions;
	// default 250µs. Decisions additionally wait for enough page progress
	// to make the throughput verdict meaningful.
	Interval sim.Duration

	// SpecBudget caps outstanding speculative pages; default one eighth of
	// the pool share, at least 16.
	SpecBudget int

	// Obs records the controller's decisions, attributed to QID, and the
	// adapt.* counters.
	Obs *obs.Registry
	QID int64
}

// Controller is the per-query feedback controller. It implements
// exec.Tuner; all calls come from simulation context, which is
// host-serialized, so plain fields suffice.
type Controller struct {
	cfg      Config
	interval sim.Duration
	target   int

	// Decision window.
	started   bool
	lastEval  sim.Time
	lastPages int64
	lastDepth float64

	// Hill-climb state. A move's verdict is judged against preTput at the
	// next decision; a failed grow sets ceiling, a failed shrink sets
	// floor, and once both brackets (or the caps) pin the target the
	// controller settles until throughput shifts.
	lastTput      float64
	lastMove      int // +n grew, -n shrank, 0 held
	ceiling       int // lowest degree known not to improve; 0 = none
	floor         int // highest degree known to cost throughput; 0 = none
	settled       bool
	settledTput   float64
	driftStrikes  int     // consecutive settled windows with drifting tput
	everDecided   bool    // a decision window has completed at least once
	decisions     int     // decision windows completed
	lastSustained float64 // mean device queue depth over the last window

	pages int64 // demand pages fetched (NoteFetch), the throughput signal

	// Speculation ledger.
	specOut     map[specKey]*disk.File
	specHits    int64
	specDropped int64
}

type specKey struct {
	file disk.FileID
	page int64
}

// verdict thresholds: a grow must improve throughput by growPay to stick; a
// shrink is reverted when it costs more than shrinkCost; a settled
// controller re-explores when throughput drifts by resettle.
const (
	growPay    = 1.02
	shrinkCost = 0.92
	resettle   = 0.25
)

// NewController seeds a controller at cfg.Initial and emits the adapt.seed
// event recording the seeded versus statically planned degree.
func NewController(cfg Config) *Controller {
	c := &Controller{cfg: cfg, interval: cfg.Interval}
	if c.interval <= 0 {
		c.interval = 250 * sim.Microsecond
	}
	c.target = cfg.Initial
	if c.target < 1 {
		c.target = 1
	}
	if cfg.Max > 0 && c.target > cfg.Max {
		c.target = cfg.Max
	}
	c.specOut = make(map[specKey]*disk.File)
	cfg.Obs.Emit(obs.EvAdaptSeed, cfg.QID, int64(c.target), int64(cfg.Planned))
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

// cap is the highest degree the controller may currently target: the hard
// cap, the band's beneficial depth, and one below any discovered ceiling.
func (c *Controller) capDegree() int {
	cap := c.MaxDegree()
	if c.cfg.Beneficial > 0 && c.cfg.Beneficial < cap {
		cap = c.cfg.Beneficial
	}
	if c.ceiling > 0 && c.ceiling-1 < cap {
		cap = c.ceiling - 1
	}
	if cap < 1 {
		cap = 1
	}
	return cap
}

// share is the pool budget signals are computed against.
func (c *Controller) share() int {
	if c.cfg.PoolShare > 0 {
		return c.cfg.PoolShare
	}
	if c.cfg.Pool != nil {
		return c.cfg.Pool.Capacity()
	}
	return 0
}

// depth reads the device's cumulative queue-depth integral (0 if unprobed).
func (c *Controller) depth() float64 {
	if c.cfg.DepthProbe == nil {
		return 0
	}
	return c.cfg.DepthProbe()
}

// Tick implements exec.Tuner: called by scan workers at batch boundaries.
// At most one decision per interval (and per enough-pages window); between
// decisions it returns the standing target.
func (c *Controller) Tick(live int) int {
	now := c.cfg.Env.Now()
	if !c.started {
		c.started = true
		c.lastEval = now
		c.lastPages = c.pages
		c.lastDepth = c.depth()
		return c.target
	}
	dt := sim.Duration(now - c.lastEval)
	if dt < c.interval {
		return c.target
	}
	// The throughput verdict needs signal: extend the window until enough
	// pages moved (worker startup and cache phases would otherwise dominate
	// short windows).
	minPages := int64(16)
	if lp := int64(4 * live); lp > minPages {
		minPages = lp
	}
	// A virgin controller demands twice the signal before its first
	// exploration: the seed is the model's best guess, and a query short
	// enough never to earn a double window just runs it unchanged.
	if !c.everDecided {
		minPages *= 2
	}
	progressed := c.pages - c.lastPages
	if progressed < minPages {
		return c.target
	}
	tput := float64(progressed) / float64(dt)
	sustained := 0.0
	if d := c.depth(); c.cfg.DepthProbe != nil {
		sustained = (d - c.lastDepth) / float64(dt)
		c.lastDepth = d
	}
	c.lastSustained = sustained
	c.lastEval = now
	c.lastPages = c.pages
	c.everDecided = true
	c.decide(live, tput, sustained)
	c.lastTput = tput
	return c.target
}

// decide is one controller decision. Order matters: judge the previous
// move, answer pressure, honor the beneficial-depth cap, then explore.
func (c *Controller) decide(live int, tput, sustained float64) {
	c.decisions++
	prevTput := c.lastTput

	// 1. Verdict on the previous move.
	if c.lastMove > 0 && prevTput > 0 && tput < prevTput*growPay {
		// The grow didn't pay: remember the ceiling and step back. The
		// ceiling lowers the cap, so exploration continues — downward: on
		// a saturated device every shrink is a free win and the controller
		// walks the staircase to the cheapest degree that still saturates.
		c.ceiling = c.target
		c.move(c.target-c.lastMove, tput)
		c.lastMove = 0
		return
	}
	if c.lastMove < 0 && prevTput > 0 && tput < prevTput*shrinkCost {
		// The shrink cost real throughput: this degree is the floor.
		// Revert and settle there — the revert is not itself judged
		// (lastMove cleared) and exploration stays closed until throughput
		// drifts, so a failed shrink can never ping-pong the fleet.
		c.floor = c.target
		c.move(c.target-c.lastMove, tput)
		c.lastMove = 0
		c.settled = true
		c.settledTput = prevTput
		return
	}
	c.lastMove = 0

	// 2. Pool pressure: pinned frames crowding the scan's share force a
	// shrink regardless of throughput.
	if share := c.share(); share > 0 && c.cfg.Pool != nil &&
		c.cfg.Pool.Pinned()*2 > share && c.target > 1 {
		c.move(c.target/2, tput)
		return
	}

	// 3. The beneficial-depth cap: a target beyond what the band's
	// calibrated depth-throughput curve can absorb sheds down to the cap.
	// This is the sustained-depth signal's complement — when the device
	// already queues at or beyond the beneficial depth, extra workers only
	// deepen the queue the model says buys nothing.
	cap := c.capDegree()
	if c.target > cap {
		c.move(cap, tput)
		return
	}

	// 4. A settled controller re-explores only when throughput drifts for
	// two consecutive windows — one window of drift is cache-phase noise,
	// not a workload shift. The learned brackets survive the unsettle:
	// they are still approximately right, and the next verdicts will
	// revise them if the world really changed.
	if c.settled {
		if c.settledTput > 0 &&
			(tput < c.settledTput*(1-resettle) || tput > c.settledTput*(1+resettle)) {
			c.driftStrikes++
			if c.driftStrikes >= 2 {
				c.settled = false
				c.driftStrikes = 0
			}
		} else {
			c.driftStrikes = 0
		}
		if c.settled {
			return
		}
	}

	// 5. Explore up while there is headroom. The sustained-depth gate skips
	// growth when the device queue already runs well beyond the live fleet
	// — queueing the executor's own readahead, not worker starvation.
	if c.target < cap {
		if c.cfg.Beneficial > 0 && sustained > float64(c.cfg.Beneficial)*1.5 {
			// Device saturated past the beneficial point already.
		} else {
			step := c.target / 2
			if step < 1 {
				step = 1
			}
			if c.target+step > cap {
				step = cap - c.target
			}
			if c.cfg.Lease != nil {
				step = c.cfg.Lease.Grow(step)
			}
			if step > 0 {
				c.move(c.target+step, tput)
				return
			}
			// The broker had nothing to re-lease: hold and retry later.
			return
		}
	}

	// 6. Explore down: shedding workers that throughput does not miss is a
	// straight win (fewer pins, credits reclaimed for the queue). With a
	// known floor the probe bisects the remaining gap, so repeated failed
	// shrinks converge on the floor in log steps instead of re-testing it.
	// A down-probe is speculative in a way the other moves are not, so it
	// waits for evidence: either a few windows of history or a discovered
	// ceiling (proof the device is saturated) — a short query settles at
	// its seed instead of spending its tail on a depressed experiment.
	if c.target > 1 && (c.decisions > 4 || c.ceiling > 0) &&
		(c.floor == 0 || c.target-1 > c.floor) {
		step := c.target / 4
		if c.floor > 0 {
			step = (c.target - c.floor) / 2
		}
		if step < 1 {
			step = 1
		}
		if c.floor > 0 && c.target-step <= c.floor {
			step = c.target - c.floor - 1
		}
		if step > 0 {
			c.move(c.target-step, tput)
			return
		}
	}

	// Nowhere to go: settled.
	c.settled = true
	c.settledTput = tput
}

// move retargets the fleet and records the move for the next verdict.
func (c *Controller) move(to int, tput float64) {
	if to < 1 {
		to = 1
	}
	if to == c.target {
		c.lastMove = 0
		return
	}
	prev := c.target
	c.lastMove = to - prev
	c.target = to
	c.lastTput = tput
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
	c.pages++
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
