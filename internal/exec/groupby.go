package exec

import (
	"cmp"
	"slices"

	"pioqo/internal/sim"
	"pioqo/internal/table"
)

// GroupBySpec describes a grouped aggregation over a scan — the "parallel
// hash groupby" the paper lists among SQL Anywhere's intra-query parallel
// operators (§2):
//
//	SELECT C2/GroupWidth, agg(C1) FROM t
//	WHERE C2 BETWEEN lo AND hi GROUP BY C2/GroupWidth
//
// The scan (any access method, any degree) feeds a hash of per-group
// accumulators; the grouping column is the scan's own predicate column, so
// group boundaries align with key ranges.
type GroupBySpec struct {
	Scan Spec
	// GroupWidth buckets C2 into groups of this key width (> 0).
	GroupWidth int64
	// Agg aggregates C1 within each group.
	Agg AggKind
}

// Group is one output group.
type Group struct {
	Key   int64 // C2 / GroupWidth
	Value int64 // the aggregate over the group's C1 values
	Rows  int64
}

// GroupByResult reports a grouped aggregation.
type GroupByResult struct {
	Groups  []Group // sorted by Key
	Rows    int64   // input rows consumed
	Runtime sim.Duration

	// Err is the scan's abort cause (see Result.Err); Groups and Rows are
	// then partial and must be discarded.
	Err error
}

// RunGroupBy executes the grouped aggregation from process context. Each
// scan worker folds the rows it delivers, paying HashGroup per row on its
// own CPU budget; the driver then merges the workers' partials, one fold
// per group and worker — the decomposable merge RunGatherGroupBy runs
// across shards. The simulation is serialized, so the partials share one
// hash: folding a row into its worker's partial and merging the partials
// later gives the groups folding it into one hash does, since every
// aggregate here is associative and commutative. The hash is a table taken
// from the node's Scratch and given back on every exit.
func RunGroupBy(p *sim.Proc, ctx *Context, spec GroupBySpec) GroupByResult {
	if spec.GroupWidth <= 0 {
		panic("exec: GroupBySpec.GroupWidth must be positive")
	}
	groups := ctx.Scratch.table()
	defer ctx.Scratch.putTable(groups)
	scan := spec.Scan.withDefaults()
	scan.Emit = func(_ int64, row table.Row) { groups.group(row.C2/spec.GroupWidth, spec.Agg).add(row.C1) }
	scan.EmitCost = ctx.Costs.HashGroup
	scanRes := RunScan(p, ctx, scan)
	useCPU(p, ctx, sim.Duration(len(groups.aggs)*scan.Degree)*ctx.Costs.PerRow)
	return GroupByResult{Groups: groups.sorted(), Rows: scanRes.RowsMatched, Err: scanRes.Err}
}

// hashTable is one hash operator's table: a join's build multiplicities and
// its nested-loop probe's sorted keys, or the per-group accumulators a
// grouped aggregation folds into — rows on a node, per-shard group partials
// on a coordinator. Operators take it from their node's Scratch.
type hashTable struct {
	m    map[int64]int64 // key → join multiplicity, or group's index in aggs
	aggs []agg           // a group-by's accumulators, in first-seen order
	keys []int64         // aggs' group keys, or a probe's sorted build keys
}

// group returns key's accumulator, creating one of kind on first use. The
// pointer is good until the next call.
func (t *hashTable) group(key int64, kind AggKind) *agg {
	i, ok := t.m[key]
	if !ok {
		i = int64(len(t.aggs))
		t.m[key] = i
		t.aggs = append(t.aggs, agg{kind: kind})
		t.keys = append(t.keys, key)
	}
	return &t.aggs[i]
}

// sorted renders the groups in key order; no group renders as nil.
func (t *hashTable) sorted() []Group {
	if len(t.aggs) == 0 {
		return nil
	}
	out := make([]Group, len(t.aggs))
	for i, a := range t.aggs {
		out[i] = Group{Key: t.keys[i], Value: a.val, Rows: a.rows}
	}
	slices.SortFunc(out, func(a, b Group) int { return cmp.Compare(a.Key, b.Key) })
	return out
}

// ExecuteGroupBy runs the grouped aggregation to completion with per-query
// metering.
func ExecuteGroupBy(ctx *Context, spec GroupBySpec) GroupByResult {
	var res GroupByResult
	rt, _, _ := metered(ctx, "groupby", func(p *sim.Proc) { res = RunGroupBy(p, ctx, spec) })
	res.Runtime = rt
	return res
}
