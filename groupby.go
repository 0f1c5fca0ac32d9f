package pioqo

import (
	"context"
	"fmt"
	"time"

	"pioqo/internal/exec"
	"pioqo/internal/sim"
)

// GroupByQuery is a grouped aggregation over one table:
//
//	SELECT C2/GroupWidth, <Agg>(C1) FROM t
//	WHERE C2 BETWEEN Low AND High GROUP BY C2/GroupWidth
type GroupByQuery struct {
	Table *Table
	Low,
	High int64
	// GroupWidth buckets C2 into groups of this key width.
	GroupWidth int64
	Agg        Aggregate
}

// GroupRow is one output group.
type GroupRow struct {
	Key   int64 // C2 / GroupWidth
	Value int64
	Rows  int64
}

// GroupByResult reports a grouped aggregation.
type GroupByResult struct {
	Groups  []GroupRow // sorted by Key
	Rows    int64
	Plan    Plan // the scan plan feeding the aggregation
	Runtime time.Duration
}

// ExecuteGroupBy optimizes the underlying scan and runs the grouped
// aggregation — Query's lifecycle with a grouping body, so every option
// applies and an abort comes back as a *QueryError. On a sharded table each
// shard groups its own partition and the group partials are folded on the
// coordinator: GROUP BY decomposes like the scalar aggregates.
func (s *System) ExecuteGroupBy(q GroupByQuery, opts ...QueryOption) (GroupByResult, error) {
	scan := Query{Table: q.Table, Low: q.Low, High: q.High}
	var res exec.GroupByResult
	lc := lifecycle{op: "groupby", scan: scan, tables: []*Table{q.Table}, scatter: true}
	if q.GroupWidth <= 0 {
		lc.invalid = fmt.Errorf("%w: group width %d must be positive", ErrInvalidQuery, q.GroupWidth)
	}
	ran, err := s.run(context.Background(), lc, opts, func(r *queryRun, po PlanOptions) (planned, error) {
		plan, err := r.optimize(scan, po)
		if err != nil {
			return planned{}, err
		}
		agg := q.Agg.internal()
		if !q.Table.sharded() {
			r.pin(&plan)
			return planned{plan, int(plan.depth), func(p *sim.Proc) {
				part := q.Table.one()
				spec := exec.GroupBySpec{Scan: r.spec(part, scan, &plan), GroupWidth: q.GroupWidth, Agg: agg}
				res = exec.RunGroupBy(p, r.context(part.node), spec)
			}}, nil
		}
		active := r.scatter(scan, &plan)
		if len(active) == 0 {
			return planned{plan: plan}, nil
		}
		return planned{plan, int(plan.depth), func(p *sim.Proc) {
			res = exec.RunGatherGroupBy(p, r.scans(scan, plan, active), plan.pruned, q.GroupWidth, agg, r.qid)
		}}, nil
	})
	if err != nil {
		return GroupByResult{}, err
	}
	out := GroupByResult{Rows: res.Rows, Plan: ran.plan, Runtime: ran.runtime}
	for _, g := range res.Groups {
		out.Groups = append(out.Groups, GroupRow{Key: g.Key, Value: g.Value, Rows: g.Rows})
	}
	return out, nil
}
