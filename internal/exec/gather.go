package exec

import (
	"fmt"
	"math"

	"pioqo/internal/obs"
	"pioqo/internal/sim"
	"pioqo/internal/table"
)

// The gather operator: a sharded query scatters one scan spec per shard,
// each running on its own node's storage stack (context), and merges the
// per-shard partial results in virtual time. The aggregates are
// decomposable — MAX/MIN/COUNT/SUM partials fold with the same agg.merge
// the per-worker accumulators use — and Emit-based consumers get the
// per-shard row streams interleaved back into global index order by a
// k-way ordered merge. Per-shard Progress rolls up into the query's
// counter by sharing one pointer across the shard specs (increments are
// serialized by the simulation).

// ShardScan is one shard's slice of a gather: the node-local execution
// context and the spec planned for that shard.
type ShardScan struct {
	Ctx  *Context
	Spec Spec
}

// GatherSpec describes a scatter-gather execution.
type GatherSpec struct {
	// Shards holds the active (unpruned) shard scans, in shard order.
	Shards []ShardScan

	// Agg is the decomposable aggregate the merge stage folds. Ignored
	// when Emit is set.
	Agg AggKind

	// Emit, when set, receives every matching row in global C2 order: the
	// per-shard streams are collected and k-way merged by key — the
	// "ordered index merge" path. Shard specs should be planned at degree
	// 1 index scans without prefetch for a meaningful global order: a
	// prefetching worker evaluates its window's rows as their pages land.
	Emit func(rowID int64, row table.Row)

	// Pruned is the number of shards partition pruning skipped, for the
	// scatter event and metrics.
	Pruned int

	// QID attributes gather events to the owning query.
	QID int64
}

// GatherResult reports a scatter-gather execution: the merged result plus
// the per-shard partials.
type GatherResult struct {
	Result

	// Partials holds each active shard's own result, in Shards order.
	Partials []Result
}

// emitRow is one buffered row of an ordered gather.
type emitRow struct {
	rowID int64
	row   table.Row
}

// scatter announces a gather over shards (pruned more were skipped by
// partition pruning), runs one process per shard on its own node, reports
// each partial's row count as it lands, and parks p until all have.
func scatter(p *sim.Proc, shards []ShardScan, pruned int, qid int64, run func(sp *sim.Proc, i int, sh ShardScan) (rows int64)) {
	if len(shards) == 0 {
		panic("exec: gather without shards")
	}
	ctx0 := shards[0].Ctx
	ctx0.Obs.Emit(obs.EvShardScatter, qid, int64(len(shards)), int64(pruned))
	wg := sim.NewWaitGroup(ctx0.Env)
	wg.Add(len(shards))
	for i, sh := range shards {
		i, sh := i, sh
		ctx0.Env.Go(fmt.Sprintf("%s-shard%d", p.Name(), i), func(sp *sim.Proc) {
			defer wg.Done()
			sh.Ctx.Obs.Emit(obs.EvShardPartial, qid, int64(i), run(sp, i, sh))
		})
	}
	p.WaitFor(wg)
}

// RunGather scatters the shard scans onto their own processes, waits for
// every partial, and merges. It runs from an existing process (the
// query's coordinator); metering the nodes involved is the caller's job.
func RunGather(p *sim.Proc, gs GatherSpec) GatherResult {
	out := GatherResult{Partials: make([]Result, len(gs.Shards))}
	ordered := make([][]emitRow, len(gs.Shards))
	scatter(p, gs.Shards, gs.Pruned, gs.QID, func(sp *sim.Proc, i int, sh ShardScan) int64 {
		spec := sh.Spec
		if gs.Emit != nil {
			spec.Emit = func(rowID int64, row table.Row) {
				ordered[i] = append(ordered[i], emitRow{rowID, row})
			}
		}
		out.Partials[i] = RunScan(sp, sh.Ctx, spec)
		return out.Partials[i].RowsMatched
	})

	// Merge stage, on the coordinator. Decomposable partials fold through
	// the same accumulator merge per-worker results use; the CPU charge
	// mirrors the optimizer's merge pricing.
	ctx0 := gs.Shards[0].Ctx
	if gs.Emit != nil {
		out.Result = mergeOrdered(p, ctx0, ordered, gs.Emit)
	} else {
		parts := make([]agg, len(out.Partials))
		for i, r := range out.Partials {
			parts[i] = agg{kind: gs.Agg, val: r.Value, found: r.Found, rows: r.RowsMatched}
		}
		useCPU(p, ctx0, sim.Duration(len(parts))*ctx0.Costs.PerRow)
		out.Result = mergeAggs(gs.Agg, parts)
	}
	for _, r := range out.Partials {
		if r.Err != nil && out.Err == nil {
			out.Err = r.Err
		}
	}
	ctx0.Obs.Emit(obs.EvShardGatherDone, gs.QID, int64(len(gs.Shards)), out.RowsMatched)
	return out
}

// mergeOrdered k-way merges the per-shard row streams by C2 (ties broken
// by row id for determinism) and feeds them to emit in that global order.
func mergeOrdered(p *sim.Proc, ctx *Context, streams [][]emitRow, emit func(int64, table.Row)) Result {
	heads := make([]int, len(streams))
	var rows int64
	for {
		best := -1
		for i, s := range streams {
			if heads[i] >= len(s) {
				continue
			}
			if best < 0 {
				best = i
				continue
			}
			a, b := s[heads[i]], streams[best][heads[best]]
			if a.row.C2 < b.row.C2 || (a.row.C2 == b.row.C2 && a.rowID < b.rowID) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		r := streams[best][heads[best]]
		heads[best]++
		rows++
		emit(r.rowID, r.row)
	}
	useCPU(p, ctx, sim.Duration(float64(rows)*
		math.Log2(math.Max(2, float64(len(streams))))*float64(ctx.Costs.PerEntry)))
	return Result{RowsMatched: rows}
}

// RunGatherGroupBy scatters per-shard grouped aggregations and merges the
// group partials: each shard builds its own group hash over its partition,
// and the coordinator folds the per-group accumulators — the decomposable
// GROUP BY merge. pruned is the number of shards partition pruning skipped.
func RunGatherGroupBy(p *sim.Proc, shards []ShardScan, pruned int, width int64, kind AggKind, qid int64) GroupByResult {
	partials := make([]GroupByResult, len(shards))
	scatter(p, shards, pruned, qid, func(sp *sim.Proc, i int, sh ShardScan) int64 {
		partials[i] = RunGroupBy(sp, sh.Ctx, GroupBySpec{Scan: sh.Spec, GroupWidth: width, Agg: kind})
		return partials[i].Rows
	})
	ctx0 := shards[0].Ctx

	groups := ctx0.Scratch.table()
	defer ctx0.Scratch.putTable(groups)
	var out GroupByResult
	for _, part := range partials {
		if part.Err != nil && out.Err == nil {
			out.Err = part.Err
		}
		out.Rows += part.Rows
		for _, g := range part.Groups {
			groups.group(g.Key, kind).merge(agg{kind: kind, val: g.Value, found: true, rows: g.Rows})
		}
	}
	useCPU(p, ctx0, sim.Duration(len(groups.aggs)*len(shards))*ctx0.Costs.PerRow)
	out.Groups = groups.sorted()
	ctx0.Obs.Emit(obs.EvShardGatherDone, qid, int64(len(shards)), out.Rows)
	return out
}
