package exec

import (
	"math/rand"
	"testing"

	"pioqo/internal/btree"
	"pioqo/internal/buffer"
	"pioqo/internal/device"
	"pioqo/internal/disk"
	"pioqo/internal/sim"
	"pioqo/internal/table"
)

// shardNode is one gather shard's storage stack: its own device, pool, and
// CPU on the shared env, holding one partition of the rowset.
type shardNode struct {
	ctx *Context
	tab *table.Materialized
	idx *btree.Index
}

// buildShard materializes cols as one shard's table on a fresh device.
func buildShard(env *sim.Env, name string, cols table.Columns) *shardNode {
	dev := device.NewSSD(env, device.DefaultSSDConfig())
	m := disk.NewManager(dev)
	tab := table.NewMaterializedFrom(m, name, 33, cols.C1, cols.C2, cols.Domain)
	return &shardNode{
		ctx: &Context{
			Env:   env,
			CPU:   sim.NewResource(env, "cpu-"+name, 8),
			Pool:  buffer.NewPool(env, 4096),
			Dev:   dev,
			Costs: DefaultCPUCosts(),
		},
		tab: tab,
		idx: btree.NewMaterialized(m, tab, 0, 0),
	}
}

// scatterNodes partitions cols across shards and builds one node per non-empty
// partition.
func scatterNodes(env *sim.Env, cols table.Columns, shards int, assign func(int64) int) []*shardNode {
	parts, _ := cols.Partition(shards, assign)
	var nodes []*shardNode
	for i, part := range parts {
		if len(part.C1) == 0 {
			continue
		}
		nodes = append(nodes, buildShard(env, "t#"+string(rune('0'+i)), part))
	}
	return nodes
}

type emitted struct{ c1, c2 int64 }

// TestGatherOrderedMergeMatchesUnshardedScan: per-shard degree-1 index
// scans feed the k-way merge, and the merged emit stream must be
// byte-identical to the unsharded degree-1 index scan's — the keys are a
// permutation (unique), so the sequence is fully determined.
func TestGatherOrderedMergeMatchesUnshardedScan(t *testing.T) {
	const rows = 4000
	rng := rand.New(rand.NewSource(11))
	cols := table.Columns{C1: make([]int64, rows), C2: make([]int64, rows), Domain: rows}
	for i, k := range rng.Perm(rows) {
		cols.C2[i] = int64(k)
		cols.C1[i] = rng.Int63n(rows)
	}
	lo, hi := int64(250), int64(3750)

	env := sim.NewEnv(1)
	ref := buildShard(env, "t", cols)
	var want []emitted
	refSpec := Spec{Table: ref.tab, Index: ref.idx, Lo: lo, Hi: hi,
		Method: IndexScan, Degree: 1,
		Emit: func(_ int64, r table.Row) { want = append(want, emitted{r.C1, r.C2}) }}
	refRes := Execute(ref.ctx, refSpec)
	if refRes.Err != nil {
		t.Fatal(refRes.Err)
	}

	for _, shards := range []int{2, 5} {
		shards := shards
		nodes := scatterNodes(env, cols, shards, func(k int64) int { return table.HashShard(k, shards) })
		var got []emitted
		gs := GatherSpec{Emit: func(_ int64, r table.Row) { got = append(got, emitted{r.C1, r.C2}) }}
		for _, n := range nodes {
			gs.Shards = append(gs.Shards, ShardScan{Ctx: n.ctx, Spec: Spec{
				Table: n.tab, Index: n.idx, Lo: lo, Hi: hi, Method: IndexScan, Degree: 1}})
		}
		res := executeGather(gs)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if res.RowsMatched != refRes.RowsMatched {
			t.Fatalf("shards=%d: merged %d rows, unsharded scan %d", shards, res.RowsMatched, refRes.RowsMatched)
		}
		if len(got) != len(want) {
			t.Fatalf("shards=%d: emitted %d rows, want %d", shards, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shards=%d: row %d = %+v, unsharded emits %+v", shards, i, got[i], want[i])
			}
		}
	}
}

// TestGatherScalarAggregatesMatchUnsharded: decomposable MAX/MIN/COUNT/SUM
// partials folded by the gather merge equal the unsharded scan's answer on
// both uniform and Zipf-skewed data.
func TestGatherScalarAggregatesMatchUnsharded(t *testing.T) {
	for _, zipf := range []bool{false, true} {
		var cols table.Columns
		if zipf {
			cols = table.DrawColumnsZipf(5000, 7, 1.3)
		} else {
			cols = table.DrawColumns(5000, 7)
		}
		env := sim.NewEnv(1)
		ref := buildShard(env, "t", cols)
		nodes := scatterNodes(env, cols, 4, func(k int64) int { return table.HashShard(k, 4) })
		for _, agg := range []AggKind{AggMax, AggMin, AggCount, AggSum} {
			for _, rg := range [][2]int64{{0, 99}, {500, 4000}, {0, 4999}, {90, 10}} {
				want := Execute(ref.ctx, Spec{Table: ref.tab, Index: ref.idx,
					Lo: rg[0], Hi: rg[1], Method: FullScan, Degree: 4, Agg: agg})
				gs := GatherSpec{Agg: agg}
				for _, n := range nodes {
					gs.Shards = append(gs.Shards, ShardScan{Ctx: n.ctx, Spec: Spec{
						Table: n.tab, Index: n.idx, Lo: rg[0], Hi: rg[1],
						Method: FullScan, Degree: 4, Agg: agg}})
				}
				got := executeGather(gs)
				if got.Err != nil || want.Err != nil {
					t.Fatal(got.Err, want.Err)
				}
				if got.Value != want.Value || got.Found != want.Found || got.RowsMatched != want.RowsMatched {
					t.Errorf("zipf=%v agg=%v range=%v: gather (%d,%v,%d), unsharded (%d,%v,%d)",
						zipf, agg, rg, got.Value, got.Found, got.RowsMatched,
						want.Value, want.Found, want.RowsMatched)
				}
			}
		}
	}
}

// TestGatherReadsEveryShard: a full gather scan makes every shard's device
// read its own partition.
func TestGatherReadsEveryShard(t *testing.T) {
	cols := table.DrawColumns(5000, 7)
	env := sim.NewEnv(1)
	nodes := scatterNodes(env, cols, 4, func(k int64) int { return table.HashShard(k, 4) })
	gs := GatherSpec{Agg: AggCount}
	for _, n := range nodes {
		gs.Shards = append(gs.Shards, ShardScan{Ctx: n.ctx, Spec: Spec{
			Table: n.tab, Index: n.idx, Lo: 0, Hi: 4999, Method: FullScan, Degree: 2}})
	}
	res := executeGather(gs)
	for i, n := range nodes {
		if n.ctx.Dev.Metrics().Snapshot().Requests == 0 {
			t.Errorf("shard %d's device served no reads", i)
		}
	}
	if res.RowsMatched != 5000 {
		t.Errorf("counted %d rows, want 5000", res.RowsMatched)
	}
}

// executeGather runs gs to completion from a coordinator process of its
// own, as the engine's query lifecycle does.
func executeGather(gs GatherSpec) GatherResult {
	env := gs.Shards[0].Ctx.Env
	var res GatherResult
	env.Go("gather", func(p *sim.Proc) { res = RunGather(p, gs) })
	env.Run()
	return res
}
