package pioqo

import (
	"fmt"

	"pioqo/internal/adapt"
	"pioqo/internal/exec"
	"pioqo/internal/opt"
)

// Adaptive execution: the consolidated tuning surface over internal/adapt.
//
// A query runs adaptively when WithAdaptive() is passed, and only then. An
// adaptive execution starts at its plan's degree and retunes at batch
// boundaries through adapt.Controller, which moves the fleet only to a
// degree the optimizer's own prices for the plan say is at least 5 %
// cheaper: growth is secured credit by credit through the broker lease,
// shrink sheds workers through the executor's governed teardown, and
// speculative prefetch pre-issues runs derived from plan structure.

// WithAdaptive runs this query under the feedback controller: it starts at
// its plan's degree and moves the fleet at batch boundaries only to a
// degree the optimizer prices at least 5 % cheaper — growing through the
// broker lease, shedding under pool pressure or past the beneficial depth.
// Without it a query runs its plan's degree throughout. Mutually exclusive
// with WithStaticDegree: pinning the degree and asking the controller to
// retune it contradict, and the combination fails with ErrInvalidQuery.
func WithAdaptive() QueryOption { return func(o *queryOptions) { o.adaptive = true } }

// WithStaticDegree pins the query's parallel degree to n, overriding the
// optimizer's choice. Cost estimates are reported unchanged.
func WithStaticDegree(n int) QueryOption { return func(o *queryOptions) { o.degree = n } }

// checkAdaptive rejects contradictory tuning options.
func (eo *queryOptions) checkAdaptive() error {
	if eo.adaptive && eo.degree > 0 {
		return fmt.Errorf("%w: WithAdaptive is mutually exclusive with WithStaticDegree", ErrInvalidQuery)
	}
	return nil
}

// adaptiveEligible limits adaptivity to the plans the executor can flex:
// demand full scans and index scans. Shared scans ride the circulating
// producer (the rider issues no device work to retune), and scatter-gather
// plans split per shard.
func adaptiveEligible(plan Plan) bool {
	return !plan.Shared && plan.Fanout == 0
}

// attachAdaptive installs the feedback controller on spec for an eligible
// adaptive execution, seeded at the plan's degree. It hands the controller
// the optimizer's price for the plan's method and prefetch at every degree
// of the grid the query's own PlanOptions enumerate — for a sole query the
// memo entry the plan was just chosen from, so the controller holds; for
// one planned under a fair share, the deeper degrees the share ruled out.
// It wires the controller to the query's pool, device depth probe and
// broker lease, through which every degree it grows to is secured; growth
// never targets beyond the band's beneficial queue depth, the broker's
// credit supply.
func (r *queryRun) attachAdaptive(spec *exec.Spec, q Query, plan Plan) {
	if !r.eo.adaptive || !adaptiveEligible(plan) {
		return
	}
	limit := r.eo.plan.MaxDegree
	if limit <= 0 {
		limit = 32
	}
	part := q.Table.one()
	cfg := adapt.Config{
		Env:        r.s.env,
		Pool:       part.node.Pool,
		DepthProbe: part.node.Dev.Metrics().DepthIntegral,
		QueueProbe: part.node.Dev.Metrics().Outstanding,
		Degree:     plan.Degree,
		Max:        max(limit, plan.Degree),
		Prices:     r.s.degreePrices(q, plan, r.eo.plan),
		Obs:        r.s.reg,
		QID:        spec.QID,
	}
	if r.lease != nil {
		cfg.Lease = r.lease
		cfg.Beneficial = r.b.Total()
	}
	spec.Tune = adapt.NewController(cfg)
}

// degreePrices is the optimizer's predicted runtime of plan's method and
// prefetch at each degree it enumerates for q under po.
func (s *System) degreePrices(q Query, plan Plan, po PlanOptions) []adapt.Price {
	var cfg opt.Config
	var in opt.Input
	if err := s.optConfig(q, po, &cfg, &in); err != nil {
		return nil
	}
	want := plan.internal()
	var prices []adapt.Price
	for _, p := range s.memo.LookupAll(&cfg, &in) {
		if p.Method == want.Method && p.Prefetch == want.Prefetch && !p.Shared {
			prices = append(prices, adapt.Price{Degree: p.Degree, Micros: p.TotalMicros})
		}
	}
	return prices
}
