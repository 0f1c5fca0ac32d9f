package exec

import (
	"sort"

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
// aggregate here is associative and commutative.
func RunGroupBy(p *sim.Proc, ctx *Context, spec GroupBySpec) GroupByResult {
	if spec.GroupWidth <= 0 {
		panic("exec: GroupBySpec.GroupWidth must be positive")
	}
	groups := groupHash{kind: spec.Agg, m: make(map[int64]*agg)}
	scan := spec.Scan.withDefaults()
	scan.Emit = func(_ int64, row table.Row) { groups.at(row.C2 / spec.GroupWidth).add(row.C1) }
	scan.EmitCost = ctx.Costs.HashGroup
	scanRes := RunScan(p, ctx, scan)
	useCPU(p, ctx, sim.Duration(len(groups.m)*scan.Degree)*ctx.Costs.PerRow)
	return GroupByResult{Groups: groups.sorted(), Rows: scanRes.RowsMatched, Err: scanRes.Err}
}

// groupHash is the hash of per-group accumulators a grouped aggregation
// folds into — rows on a node, per-shard group partials on a coordinator.
type groupHash struct {
	kind AggKind
	m    map[int64]*agg
}

// at returns key's accumulator, creating it on first use.
func (g groupHash) at(key int64) *agg {
	a, ok := g.m[key]
	if !ok {
		a = &agg{kind: g.kind}
		g.m[key] = a
	}
	return a
}

// sorted renders the groups in key order.
func (g groupHash) sorted() []Group {
	var out []Group
	for key, a := range g.m {
		out = append(out, Group{Key: key, Value: a.val, Rows: a.rows})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
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
