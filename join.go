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

// JoinResult reports an executed join.
type JoinResult struct {
	// Value is the aggregate over probe-side C1 across joined pairs.
	Value int64
	Found bool
	// Pairs is the number of joined pairs; BuildRows and ProbeRows count
	// the rows each side's scan produced.
	Pairs     int64
	BuildRows int64
	ProbeRows int64
	// Method is the chosen join algorithm: "HashJoin" or "IndexNLJoin".
	Method string
	// BuildPlan and ProbePlan are the chosen access paths (for an index
	// nested-loop join, ProbePlan describes the per-key lookup degree).
	BuildPlan Plan
	ProbePlan Plan
	Runtime   time.Duration
}

// JoinPlan describes the optimizer's choice for a join without running it.
type JoinPlan struct {
	// Method is "HashJoin" or "IndexNLJoin".
	Method string
	Build  Plan
	Probe  Plan
	// EstimatedCost is the total join estimate.
	EstimatedCost time.Duration
}

func (p JoinPlan) String() string {
	return fmt.Sprintf("%s (build %v, probe %v, cost %v)",
		p.Method, p.Build, p.Probe, p.EstimatedCost)
}

// PlanJoin returns the optimizer's join plan without executing it.
func (s *System) PlanJoin(q JoinQuery, o PlanOptions) (JoinPlan, error) {
	jp, err := s.planJoin(q, o)
	if err != nil {
		return JoinPlan{}, err
	}
	return JoinPlan{
		Method:        jp.Method.String(),
		Build:         fromInternalPlan(jp.Build),
		Probe:         fromInternalPlan(jp.Probe),
		EstimatedCost: time.Duration(jp.TotalMicros * 1e3),
	}, nil
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

// ExecuteJoin optimizes and runs a join — Query's lifecycle with a join
// body, so both phases run under the query's abort control and retry
// policy and a static degree pins both sides. Both sides require an index
// only if their chosen plan needs one; unindexed tables simply restrict
// the planner (to full scans, and to the hash join on the probe side).
func (s *System) ExecuteJoin(q JoinQuery, opts ...QueryOption) (JoinResult, error) {
	// The two scans feed the join through row hooks; the aggregate is the
	// join's own (JoinSpec.Agg), not theirs.
	build := Query{Table: q.Build, Low: q.Low, High: q.High}
	probe := Query{Table: q.Probe, Low: q.Low, High: q.High}
	var method exec.JoinMethod
	var probePlan Plan
	var res exec.JoinResult
	lc := lifecycle{op: "join", scan: build, tables: []*Table{q.Build, q.Probe}}
	ran, err := s.run(context.Background(), lc, opts, func(r *queryRun, po PlanOptions) (planned, error) {
		jp, err := s.planJoin(q, po)
		if err != nil {
			return planned{}, err
		}
		method = jp.Method
		buildPlan := fromInternalPlan(jp.Build)
		probePlan = fromInternalPlan(jp.Probe)
		r.pin(&buildPlan)
		r.pin(&probePlan)
		// The phases run one after the other, so the join's lease asks for
		// the deeper of the two.
		depth := int(max(jp.Build.Depth, jp.Probe.Depth))
		return planned{buildPlan, depth, func(p *sim.Proc) {
			spec := exec.JoinSpec{
				Method: jp.Method,
				Build:  r.spec(q.Build.one(), build, &buildPlan),
				Probe:  r.spec(q.Probe.one(), probe, &probePlan),
				Agg:    q.Agg.internal(),
			}
			res = exec.RunJoin(p, r.context(s.coord()), spec)
		}}, nil
	})
	if err != nil {
		return JoinResult{}, err
	}
	return JoinResult{
		Value:     res.Value,
		Found:     res.Found,
		Pairs:     res.Pairs,
		BuildRows: res.BuildRows,
		ProbeRows: res.ProbeRows,
		Method:    method.String(),
		BuildPlan: ran.plan,
		ProbePlan: probePlan,
		Runtime:   ran.runtime,
	}, nil
}
