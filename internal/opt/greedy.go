// Greedy O(n) access-path selection. Full enumeration prices every
// (method × degree × prefetch) candidate — O(n·m) costings per query — which
// a serving tier re-planning the same query shape millions of times cannot
// afford. The greedy fast path prices O(n) candidates instead: every degree
// still competes, but the prefetch dimension is collapsed through a
// precomputed crossover table (for each degree, the prefetch depth whose
// combined queue depth minimizes the model's page cost — the device's
// beneficial depth, discovered once per shape instead of once per query).
//
// Greedy is allowed to be wrong only where being wrong is cheap: when the
// best candidates of two different access-path families price within an
// uncertainty margin of each other — the estimated selectivity lands near a
// plan crossover, exactly where estimation noise flips winners — the fast
// path distrusts itself and falls back to the full enumeration.
package opt

import "pioqo/internal/exec"

// greedyMargin is the relative cost margin the greedy fast path and the
// parameterized cache treat as crossover-close: when the best plans of two
// different access-path families price within this fraction of each other,
// the serving path distrusts its shortcut and falls back to full
// enumeration.
const greedyMargin = 0.10

// crossover is the precomputed per-shape table collapsing the prefetch
// dimension: prefetch[i] is the depth from Config.PrefetchDepths that
// minimizes the model's page cost for an index scan at degrees()[i]
// (0 when no configured depth beats unprefetched I/O). It depends only on
// the cost model, the heap band, the queue budget, and the enumeration
// grid — never on the predicate — so one table serves every query of a
// shape.
type crossover struct {
	prefetch []int
}

// computeCrossover builds the crossover table for one shape: an O(n·m)
// sweep of the model's page-cost surface, paid once per shape and then
// amortized over every query that binds into it.
func computeCrossover(cfg *Config, band int64) *crossover {
	degs := cfg.degrees()
	cx := &crossover{prefetch: make([]int, len(degs))}
	for i, d := range degs {
		best, bestCost := 0, cfg.Model.PageCost(band, capDepth(cfg, d))
		for _, pf := range cfg.PrefetchDepths {
			if pf <= 0 {
				continue
			}
			if c := cfg.Model.PageCost(band, capDepth(cfg, d*pf)); c < bestCost {
				best, bestCost = pf, c
			}
		}
		cx.prefetch[i] = best
	}
	return cx
}

// capDepth applies the queue budget to a plan's generated device depth —
// the one clamp every costing and the crossover table price through.
func capDepth(cfg *Config, depth int) int {
	if cfg.QueueBudget > 0 && depth > cfg.QueueBudget {
		return cfg.QueueBudget
	}
	return depth
}

// family buckets a plan into its access-path family. The greedy margin is
// measured between families, not within one: two adjacent degrees of the
// same method pricing close together is normal hill-flatness, while two
// families pricing close together is a crossover — the regime where greedy
// ordering picks wrong plans.
func family(p Plan) int {
	switch {
	case p.Shared:
		return 0
	case p.Method == exec.IndexScan:
		return 1
	default:
		return 2 // private full scan
	}
}

// top2 tracks the cheapest plan seen and the cheapest plan from any *other*
// family — the crossover competitor the cache revalidates against. Strict
// comparison keeps the first of equals, matching Enumerate's stable sort.
type top2 struct {
	winner, runner Plan
	n              int
	hasRunner      bool
}

func (t *top2) add(p Plan) {
	t.n++
	if t.n == 1 {
		t.winner = p
		return
	}
	if p.TotalMicros < t.winner.TotalMicros {
		if family(t.winner) != family(p) {
			t.runner, t.hasRunner = t.winner, true
		}
		t.winner = p
		return
	}
	if family(p) == family(t.winner) {
		return
	}
	if !t.hasRunner || p.TotalMicros < t.runner.TotalMicros {
		t.runner, t.hasRunner = p, true
	}
}

// pickTop extracts the winner and its cross-family runner-up from a
// cost-sorted enumeration.
func pickTop(plans []Plan) top2 {
	var t top2
	for _, p := range plans {
		t.add(p)
	}
	return t
}

// greedyPlan prices the O(n) greedy candidate set — every degree's full
// scan, unprefetched index scan, and crossover-prefetched index scan (plus
// the shared lap when enabled) — and returns the winner and
// its cross-family runner-up. When the two land within the configured
// margin of each other the estimate sits on a crossover: greedyPlan falls
// back to the full enumeration and reports fellBack, so callers can meter
// the fast-path rate.
func greedyPlan(cfg *Config, in *Input, cc *costing, cx *crossover) (t top2, fellBack bool) {
	if cfg.ShareParties >= 2 {
		t.add(costSharedScan(cfg, in, cc))
	}
	for i, d := range cfg.degrees() {
		if cfg.overBudget(d) {
			continue
		}
		t.add(costFullScan(cfg, in, cc, d))
		if in.Index == nil {
			continue
		}
		t.add(costIndexScan(cfg, in, cc, d, 0))
		if pf := cx.prefetch[i]; pf > 0 {
			t.add(costIndexScan(cfg, in, cc, d, pf))
		}
	}
	if t.n == 0 {
		// A queue budget below every degree still permits serial plans,
		// exactly as in Enumerate.
		t.add(costFullScan(cfg, in, cc, 1))
		if in.Index != nil {
			t.add(costIndexScan(cfg, in, cc, 1, 0))
		}
	}
	if t.hasRunner &&
		t.runner.TotalMicros-t.winner.TotalMicros <= greedyMargin*t.winner.TotalMicros {
		return rankTop(cfg, in, cc), true
	}
	t.winner = canonPrefetch(cfg, in, cc, t.winner)
	return t, false
}

// canonPrefetch aligns a greedy index-scan winner with Enumerate's
// tie-break. The crossover table picks the depth minimizing page cost, but
// a CPU-bound plan prices identically at every I/O-saturating depth, and
// Enumerate's stable sort keeps the earliest tying candidate — the
// shallowest depth in grid order. On a tie, serve that plan, so the fast
// path returns the full enumeration's winner bit-for-bit.
func canonPrefetch(cfg *Config, in *Input, cc *costing, w Plan) Plan {
	if w.Method != exec.IndexScan || w.Prefetch == 0 || w.Shared {
		return w
	}
	for _, pf := range cfg.PrefetchDepths {
		if pf == w.Prefetch {
			break
		}
		if pf <= 0 {
			continue
		}
		if p := costIndexScan(cfg, in, cc, w.Degree, pf); p.TotalMicros == w.TotalMicros {
			return p
		}
	}
	return w
}

// costShape re-prices one known plan shape at the given costing — the
// constant-binding step: a cached shape from an earlier query in the band
// gets this query's selectivity and the pool's current residency, without
// re-enumerating anything.
func costShape(cfg *Config, in *Input, cc *costing, p Plan) Plan {
	switch {
	case p.Shared:
		return costSharedScan(cfg, in, cc)
	case p.Method == exec.IndexScan:
		return costIndexScan(cfg, in, cc, p.Degree, p.Prefetch)
	default:
		return costFullScan(cfg, in, cc, p.Degree)
	}
}

// GreedyChoose picks a plan through the greedy fast path alone — no cache —
// reporting whether it fell back to full enumeration. The quality harness
// (experiments.PlanBench) drives it point-by-point against Choose to
// measure agreement and regret across the selectivity × device grid.
func GreedyChoose(cfg Config, in Input) (Plan, bool) {
	cfg.validate()
	est := newEstimator(&cfg, &in)
	cc := bindCosting(&in, selectivity(&in, in.Lo, in.Hi), &est)
	t, fell := greedyPlan(&cfg, &in, &cc, computeCrossover(&cfg, in.Table.Pages()))
	return t.winner, fell
}
