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

// GroupByResult is ExecuteGroupBy's shape of a group-by's Result.
type GroupByResult struct {
	Groups  []GroupRow
	Rows    int64
	Plan    Plan
	Runtime time.Duration
}

// ExecuteGroupBy is Run of q under a background context.
//
// Deprecated: use Run. Kept for the frozen bench/ suite.
func (s *System) ExecuteGroupBy(q GroupByQuery, opts ...QueryOption) (GroupByResult, error) {
	res, err := s.Run(context.Background(), q, opts...)
	return GroupByResult{Groups: res.Groups, Rows: res.Rows, Plan: res.Plan, Runtime: res.Runtime}, err
}

// scan is the range scan that feeds the aggregation.
func (q GroupByQuery) scan() Query { return Query{Table: q.Table, Low: q.Low, High: q.High} }

func (q GroupByQuery) request() lifecycle {
	lc := lifecycle{op: "groupby", scan: q.scan(), tables: []*Table{q.Table}, scatter: true}
	if q.GroupWidth <= 0 {
		lc.invalid = fmt.Errorf("%w: group width %d must be positive", ErrInvalidQuery, q.GroupWidth)
	}
	return lc
}

// body is the grouped aggregation: the optimizer plans the underlying
// scan, and the rows it yields are grouped. On a sharded table each shard
// groups its own partition and the group partials are folded on the
// coordinator: GROUP BY decomposes like the scalar aggregates.
func (q GroupByQuery) body(r *queryRun, po PlanOptions) (planned, error) {
	scan, agg := q.scan(), q.Agg.internal()
	return r.rangeScan(scan, po, func(p *sim.Proc, plan *Plan, shards []exec.ShardScan) {
		var res exec.GroupByResult
		if shards == nil {
			part := q.Table.one()
			spec := exec.GroupBySpec{Scan: r.spec(part, scan, plan), GroupWidth: q.GroupWidth, Agg: agg}
			res = exec.RunGroupBy(p, r.context(part.node), spec)
		} else {
			res = exec.RunGatherGroupBy(p, shards, plan.pruned, q.GroupWidth, agg, r.qid)
		}
		r.res.Rows = res.Rows
		for _, g := range res.Groups {
			r.res.Groups = append(r.res.Groups, GroupRow{Key: g.Key, Value: g.Value, Rows: g.Rows})
		}
	})
}
