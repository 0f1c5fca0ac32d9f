package pioqo

import (
	"fmt"

	"pioqo/internal/adapt"
	"pioqo/internal/broker"
	"pioqo/internal/exec"
	"pioqo/internal/opt"
)

// Adaptive execution: the consolidated tuning surface over internal/adapt.
//
// A query runs adaptively when WithAdaptive() is passed or Config.Adaptive
// makes it the system default; a static degree (WithStaticDegree) opts the
// query back out. Adaptive executions seed their initial degree from the
// offline DOP model fit on the most recent calibration sweep (falling back
// to the optimizer's static choice when no model is installed — e.g. after
// LoadModel, which restores a cost model but not the sweep it came from),
// then retune at batch boundaries through adapt.Controller: growth is
// secured credit by credit through the broker lease, shrink sheds workers
// through the executor's governed teardown, and speculative prefetch
// pre-issues runs derived from plan structure.

// WithAdaptive runs this query under the feedback controller even when
// Config.Adaptive is off. Mutually exclusive with WithStaticDegree: pinning
// the degree and asking the controller to retune it contradict, and the
// combination fails with ErrInvalidQuery.
func WithAdaptive() QueryOption { return func(o *queryOptions) { o.adaptive = true } }

// WithStaticDegree pins the query's parallel degree to n, overriding the
// optimizer's choice and opting the query out of adaptive retuning (the
// way to hold a control arm still on a Config.Adaptive system). Cost
// estimates are reported unchanged.
func WithStaticDegree(n int) QueryOption { return func(o *queryOptions) { o.degree = n } }

// checkAdaptive rejects contradictory tuning options.
func (eo *queryOptions) checkAdaptive() error {
	if eo.adaptive && eo.degree > 0 {
		return fmt.Errorf("%w: WithAdaptive is mutually exclusive with WithStaticDegree", ErrInvalidQuery)
	}
	return nil
}

// adaptiveOn reports whether this execution should run under the feedback
// controller: opted in per query or system-wide, and not pinned static.
func (s *System) adaptiveOn(eo queryOptions) bool {
	return (eo.adaptive || s.adaptive) && eo.degree == 0
}

// adaptiveEligible limits adaptivity to the plans the executor can flex:
// demand full scans and index scans. Shared scans ride the circulating
// producer (the rider issues no device work to retune), sorted scans are
// a fixed two-phase pipeline, and scatter-gather plans split per shard.
func adaptiveEligible(plan Plan) bool {
	if plan.Shared || plan.Fanout > 0 {
		return false
	}
	return plan.Method == FullTableScan || plan.Method == IndexScan
}

// attachAdaptive installs the feedback controller on spec for an eligible
// adaptive execution: it seeds the initial degree from the DOP model
// (snapped onto the optimizer's degree grid so the executed degree is
// always one the planner could have chosen), rewrites spec.Degree and
// plan.Degree to the seed, and wires the controller to the query's pool,
// device depth probe, and — on the session path — its broker lease.
// beneficial is the band's beneficial queue depth (the broker's credit
// supply); growth never targets beyond it.
func (s *System) attachAdaptive(spec *exec.Spec, q Query, plan *Plan, eo queryOptions, lease *broker.Lease, beneficial int) {
	if !s.adaptiveOn(eo) || !adaptiveEligible(*plan) {
		return
	}
	planned := plan.Degree
	max := eo.plan.MaxDegree
	if max <= 0 {
		max = 32
	}
	if max < planned {
		max = planned
	}
	seed := planned
	if s.dop != nil {
		seed = opt.SnapDegree(nil, s.dop.InitialDegree(estimatePages(q, *plan), planned, max))
	}
	part := q.Table.one()
	cfg := adapt.Config{
		Env:        s.env,
		Pool:       part.node.Pool,
		PoolShare:  spec.PoolShare,
		DepthProbe: part.node.Dev.Metrics().DepthIntegral,
		QueueProbe: part.node.Dev.Metrics().Outstanding,
		Initial:    seed,
		Planned:    planned,
		Max:        max,
		Beneficial: beneficial,
		Obs:        s.reg,
		QID:        spec.QID,
	}
	if lease != nil {
		cfg.Lease = lease
	}
	spec.Tune = adapt.NewController(cfg)
	spec.Degree = seed
	plan.Degree = seed
}
