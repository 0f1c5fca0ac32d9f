package pioqo

import (
	"context"
	"fmt"
	"time"

	"pioqo/internal/exec"
	"pioqo/internal/sim"
	"pioqo/internal/table"
)

// UpdateQuery modifies matching rows in place:
//
//	UPDATE t SET C1 = C1 + Delta WHERE C2 BETWEEN Low AND High
//
// Updates go beyond the paper's read-only evaluation but exercise the rest
// of a real engine's write path: modified pages are marked dirty in the
// buffer pool and written back to the simulated device on eviction or at
// the closing checkpoint, whose I/O is part of the reported runtime.
type UpdateQuery struct {
	Table *Table
	Low,
	High int64
	// Delta is added to each matching row's C1.
	Delta int64
}

// UpdateResult reports an executed update.
type UpdateResult struct {
	RowsUpdated int64
	// PagesWritten counts dirty-page write-backs (evictions plus the final
	// checkpoint).
	PagesWritten int64
	// Plan is the scan plan that located the rows.
	Plan    Plan
	Runtime time.Duration
}

// Update optimizes the locating scan like any query, applies the mutation
// through the buffer pool, and checkpoints dirty pages before returning —
// Query's lifecycle with a mutating body. Only materialized tables are
// updatable (synthetic values are computed).
//
// An update is not atomic. One aborted by WithTimeout, a device fault or an
// exhausted retry policy has already applied Delta to the rows its scan
// reached, and the closing checkpoint still makes them durable: the
// *QueryError comes back with an UpdateResult carrying only RowsUpdated, the
// number of rows changed. Re-running the same update applies Delta to those
// rows a second time.
func (s *System) Update(q UpdateQuery, opts ...QueryOption) (UpdateResult, error) {
	scan := Query{Table: q.Table, Low: q.Low, High: q.High, Agg: Count}
	var res exec.Result
	lc := lifecycle{op: "update", scan: scan, tables: []*Table{q.Table}}
	ran, err := s.run(context.Background(), lc, opts, func(r *queryRun, po PlanOptions) (planned, error) {
		mat, ok := q.Table.one().tab.(*table.Materialized)
		if !ok {
			return planned{}, fmt.Errorf("%w: table %q is synthetic and read-only", ErrInvalidQuery, q.Table.Name())
		}
		plan, err := r.optimize(scan, po)
		if err != nil {
			return planned{}, err
		}
		r.pin(&plan)
		return planned{plan, int(plan.depth), func(p *sim.Proc) {
			part := q.Table.one()
			spec := r.spec(part, scan, &plan)
			spec.Update = func(rowID int64) { mat.SetC1(rowID, mat.RowAt(rowID).C1+q.Delta) }
			res = exec.RunScan(p, r.context(part.node), spec)
			// Checkpoint: the update is not done until its pages are durable
			// — and an aborted one still flushes the rows it changed, so
			// memory and device never disagree.
			part.node.Pool.FlushDirty(p)
		}}, nil
	})
	if err != nil {
		return UpdateResult{RowsUpdated: res.RowsMatched}, err
	}
	return UpdateResult{
		RowsUpdated:  res.RowsMatched,
		PagesWritten: q.Table.one().node.Pool.Stats.DirtyWrites,
		Plan:         ran.plan,
		Runtime:      ran.runtime,
	}, nil
}
