package pioqo

import (
	"context"
	"fmt"
	"time"

	"pioqo/internal/exec"
	"pioqo/internal/opt"
	"pioqo/internal/sim"
)

// JoinQuery is an equi-join over two tables' C2 columns with a range
// predicate on the join key:
//
//	SELECT <Agg>(probe.C1) FROM probe JOIN build ON probe.C2 = build.C2
//	WHERE build.C2 BETWEEN Low AND High
//
// Joins are an extension beyond the paper's evaluation (its conclusion
// defers "more complex database operators" to future research); both sides
// are planned with the same QDTT-aware access-path selection as single
// scans.
type JoinQuery struct {
	Build,
	Probe *Table
	Low,
	High int64
	Agg Aggregate
}

// JoinResult is ExecuteJoin's shape of a join's Result: Pairs is its Rows,
// and Method, BuildPlan and ProbePlan are its Plan.Join's.
type JoinResult struct {
	Value                       int64
	Found                       bool
	Pairs, BuildRows, ProbeRows int64
	Method                      string
	BuildPlan, ProbePlan        Plan
	Runtime                     time.Duration
}

// JoinPlan is the optimizer's choice for a join: the Join of a JoinQuery's
// Plan, whether planned (System.Plan) or run (Result.Plan).
type JoinPlan struct {
	// Method is "HashJoin" or "IndexNLJoin".
	Method string
	// Build and Probe are the two sides' access paths (for an index
	// nested-loop join, Probe describes the per-key lookup degree).
	Build, Probe Plan
	// EstimatedCost is the total join estimate.
	EstimatedCost time.Duration
}

func (p JoinPlan) String() string {
	return fmt.Sprintf("%s (build %v, probe %v, cost %v)",
		p.Method, p.Build, p.Probe, p.EstimatedCost)
}

// fromJoinPlan is a join's public plan: its build side's shape, carrying
// the whole choice in Join.
func fromJoinPlan(jp opt.JoinPlan) Plan {
	plan := fromInternalPlan(jp.Build)
	plan.Join = &JoinPlan{Method: jp.Method.String(), Build: plan, Probe: fromInternalPlan(jp.Probe),
		EstimatedCost: time.Duration(jp.TotalMicros * 1e3)}
	return plan
}

func (s *System) planJoin(q JoinQuery, po PlanOptions) (opt.JoinPlan, error) {
	var cfg opt.Config
	var buildIn, probeIn opt.Input
	if err := s.optConfig(Query{Table: q.Build, Low: q.Low, High: q.High}, po, &cfg, &buildIn); err != nil {
		return opt.JoinPlan{}, err
	}
	if err := s.optConfig(Query{Table: q.Probe, Low: q.Low, High: q.High}, po, &cfg, &probeIn); err != nil {
		return opt.JoinPlan{}, err
	}
	return opt.ChooseJoin(cfg, buildIn, probeIn), nil
}

// ExecuteJoin is Run of q under a background context.
//
// Deprecated: use Run. Kept for the frozen bench/ suite.
func (s *System) ExecuteJoin(q JoinQuery, opts ...QueryOption) (JoinResult, error) {
	res, err := s.Run(context.Background(), q, opts...)
	if err != nil {
		return JoinResult{}, err
	}
	jp := res.Plan.Join
	return JoinResult{Value: res.Value, Found: res.Found, Pairs: res.Rows, BuildRows: res.BuildRows, ProbeRows: res.ProbeRows,
		Method: jp.Method, BuildPlan: jp.Build, ProbePlan: jp.Probe, Runtime: res.Runtime}, nil
}

func (q JoinQuery) request() lifecycle {
	return lifecycle{op: "join", scan: Query{Table: q.Build, Low: q.Low, High: q.High}, tables: []*Table{q.Build, q.Probe}}
}

// body is the join: both phases run under the query's abort control and
// retry policy, and a static degree pins both sides. Both sides require an
// index only if their chosen plan needs one; unindexed tables simply
// restrict the planner (to full scans, and to the hash join on the probe
// side).
func (q JoinQuery) body(r *queryRun, po PlanOptions) (planned, error) {
	if r.eo.forced != nil {
		return planned{}, fmt.Errorf("%w: WithPlan forces one scan; a join plans both of its sides", ErrInvalidQuery)
	}
	ijp, err := r.s.planJoin(q, po)
	if err != nil {
		return planned{}, err
	}
	jp := fromJoinPlan(ijp).Join
	r.pin(&jp.Build)
	r.pin(&jp.Probe)
	plan := jp.Build
	plan.Join = jp
	// The phases run one after the other, so the join's lease asks for the
	// deeper of the two.
	depth := int(max(ijp.Build.Depth, ijp.Probe.Depth))
	return planned{plan, depth, func(p *sim.Proc) {
		// The two scans feed the join through row hooks; the aggregate is
		// the join's own (JoinSpec.Agg), not theirs.
		spec := exec.JoinSpec{
			Method: ijp.Method,
			Build:  r.spec(q.Build.one(), Query{Table: q.Build, Low: q.Low, High: q.High}, &jp.Build),
			Probe:  r.spec(q.Probe.one(), Query{Table: q.Probe, Low: q.Low, High: q.High}, &jp.Probe),
			Agg:    q.Agg.internal(),
		}
		res := exec.RunJoin(p, r.context(r.s.coord()), spec)
		r.res.Value, r.res.Found, r.res.Rows = res.Value, res.Found, res.Pairs
		r.res.BuildRows, r.res.ProbeRows = res.BuildRows, res.ProbeRows
	}}, nil
}
