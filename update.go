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
//
// An update is not atomic. One aborted by WithTimeout, a device fault or an
// exhausted retry policy has already applied Delta to the rows its scan
// reached, and the closing checkpoint still makes them durable: the
// *QueryError comes back with a Result whose Rows is the number of rows
// changed. Re-running the same update applies Delta to those rows a second
// time.
type UpdateQuery struct {
	Table *Table
	Low,
	High int64
	// Delta is added to each matching row's C1.
	Delta int64
}

// UpdateResult is Update's shape of an update's Result: RowsUpdated is its
// Rows.
type UpdateResult struct {
	RowsUpdated, PagesWritten int64
	Plan                      Plan
	Runtime                   time.Duration
}

// Update is Run of q under a background context.
//
// Deprecated: use Run. Kept for the frozen bench/ suite.
func (s *System) Update(q UpdateQuery, opts ...QueryOption) (UpdateResult, error) {
	res, err := s.Run(context.Background(), q, opts...)
	return UpdateResult{RowsUpdated: res.Rows, PagesWritten: res.PagesWritten, Plan: res.Plan, Runtime: res.Runtime}, err
}

// scan is the range scan that locates the rows to update.
func (q UpdateQuery) scan() Query { return Query{Table: q.Table, Low: q.Low, High: q.High, Agg: Count} }

func (q UpdateQuery) request() lifecycle {
	return lifecycle{op: "update", scan: q.scan(), tables: []*Table{q.Table}}
}

// body is the update: the optimizer plans the locating scan like any
// query, the mutation goes through the buffer pool, and dirty pages are
// checkpointed before the query ends. Only materialized tables are
// updatable (synthetic values are computed); partitioned ones were
// rejected by the lifecycle.
func (q UpdateQuery) body(r *queryRun, po PlanOptions) (planned, error) {
	mat, ok := q.Table.one().tab.(*table.Materialized)
	if !ok {
		return planned{}, fmt.Errorf("%w: table %q is synthetic and read-only", ErrInvalidQuery, q.Table.Name())
	}
	scan := q.scan()
	return r.rangeScan(scan, po, func(p *sim.Proc, plan *Plan, _ []exec.ShardScan) {
		part := q.Table.one()
		written := part.node.Pool.Stats.DirtyWrites
		spec := r.spec(part, scan, plan)
		spec.Update = func(rowID int64) { mat.SetC1(rowID, mat.RowAt(rowID).C1+q.Delta) }
		r.res.Rows = exec.RunScan(p, r.context(part.node), spec).RowsMatched
		// Checkpoint: the update is not done until its pages are durable —
		// and an aborted one still flushes the rows it changed, so memory
		// and device never disagree. The writes are device work, so an
		// update that found its rows resident passes its gate here.
		if r.lease != nil {
			r.lease.Admit(p)
		}
		part.node.Pool.FlushDirty(p)
		r.res.PagesWritten = part.node.Pool.Stats.DirtyWrites - written
	})
}
