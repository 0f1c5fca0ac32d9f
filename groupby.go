package pioqo

import (
	"context"
	"errors"
	"fmt"
	"time"

	"pioqo/internal/exec"
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
// aggregation. Like Execute it runs under an abort control, so WithTimeout
// and WithRetry apply and a device fault that outlives the retry policy
// comes back as a *QueryError wrapping ErrDeviceFault.
func (s *System) ExecuteGroupBy(q GroupByQuery, opts ...QueryOption) (GroupByResult, error) {
	if q.GroupWidth <= 0 {
		return GroupByResult{}, fmt.Errorf("pioqo: group width %d must be positive", q.GroupWidth)
	}
	if q.Table == nil {
		return GroupByResult{}, errors.New("pioqo: group-by without a table")
	}
	var eo queryOptions
	for _, o := range opts {
		o(&eo)
	}
	ctl, err := s.newControl(context.Background(), eo)
	if err != nil {
		return GroupByResult{}, &QueryError{Op: "groupby", Table: q.Table.Name(), Err: err}
	}
	if eo.cold {
		s.FlushBufferPool()
	}
	plan, err := s.Plan(Query{Table: q.Table, Low: q.Low, High: q.High}, eo.plan)
	if err != nil {
		return GroupByResult{}, err
	}
	if q.Table.sharded() {
		// Per-shard grouped aggregation, group partials folded on the
		// coordinator — GROUP BY decomposes like the scalar aggregates.
		return s.executeGatherGroupBy(q, plan, eo, ctl)
	}
	spec := exec.GroupBySpec{
		Scan: exec.Spec{
			Table:             q.Table.one().tab,
			Index:             q.Table.one().idx,
			Lo:                q.Low,
			Hi:                q.High,
			Method:            plan.Method.internal(),
			Degree:            plan.Degree,
			PrefetchPerWorker: plan.Prefetch,
			Ctl:               ctl,
			Retry:             eo.retry.internal(),
		},
		GroupWidth: q.GroupWidth,
		Agg:        q.Agg.internal(),
	}
	res := exec.ExecuteGroupBy(s.execContext(), spec)
	if res.Err != nil {
		return GroupByResult{}, &QueryError{Op: "groupby", Table: q.Table.Name(), Err: res.Err}
	}
	out := GroupByResult{
		Rows:    res.Rows,
		Plan:    plan,
		Runtime: time.Duration(res.Runtime),
	}
	for _, g := range res.Groups {
		out.Groups = append(out.Groups, GroupRow{Key: g.Key, Value: g.Value, Rows: g.Rows})
	}
	return out, nil
}
