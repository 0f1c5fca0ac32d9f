package opt

import (
	"math"

	"pioqo/internal/sim"
)

// Scatter-gather planning: a sharded query fans one scan out over N
// shards, each planned independently — its own access path, degree, and
// prefetch depth, priced under that shard's device band (the shard
// table's own page count), pool capacity, and queue-depth lease budget —
// and a merge stage folds the per-shard partials. The shards run on
// separate simulated devices, so the plan's cost is a makespan: the most
// expensive shard's cost, plus the coordinator's merge work.

// MergeKind names the gather operator's merge stage, which is what the
// merge cost is priced for.
type MergeKind int

const (
	// MergeScalar folds one decomposable scalar partial per shard
	// (MAX/MIN/COUNT/SUM): O(shards).
	MergeScalar MergeKind = iota
	// MergeOrdered interleaves per-shard index-order row streams into one
	// globally ordered stream: O(rows · log shards).
	MergeOrdered
	// MergeGroups folds per-shard group hash tables: O(groups · shards).
	MergeGroups
)

// ShardPlan is a costed scatter-gather plan: one independently chosen plan
// per shard plus the merge stage.
type ShardPlan struct {
	// Shards holds the per-shard plans, parallel to the cfgs/ins given to
	// ChooseSharded — only the shards that survived pruning are passed in.
	Shards []Plan

	// EstRows is the summed per-shard row estimate.
	EstRows float64

	// MergeMicros is the merge stage's estimated CPU cost.
	MergeMicros float64

	// TotalMicros is the scatter-gather makespan estimate: the most
	// expensive shard plus the merge. IOMicros/CPUMicros follow the same
	// max-shard convention.
	IOMicros, CPUMicros, TotalMicros float64
}

// ChooseSharded plans each shard with choose (the engine's band-cached
// Choose, or stateless Choose) and prices the merge stage. cfgs[i] must
// carry shard i's band-local sizing: its pool capacity and its split of the
// query's queue-depth lease budget. groups sizes the MergeGroups hash (ignored for
// the other kinds).
func ChooseSharded(choose func(Config, Input) Plan, cfgs []Config, ins []Input,
	merge MergeKind, groups float64) ShardPlan {
	if len(cfgs) != len(ins) || len(cfgs) == 0 {
		panic("opt: ChooseSharded with mismatched or empty shard inputs")
	}
	sp := ShardPlan{Shards: make([]Plan, len(cfgs))}
	for i := range cfgs {
		p := choose(cfgs[i], ins[i])
		sp.Shards[i] = p
		sp.EstRows += p.EstRows
		// Shards overlap in virtual time on their own devices: the
		// scatter stage costs what its slowest shard costs.
		sp.IOMicros = math.Max(sp.IOMicros, p.IOMicros)
		sp.CPUMicros = math.Max(sp.CPUMicros, p.CPUMicros)
		sp.TotalMicros = math.Max(sp.TotalMicros, p.TotalMicros)
	}
	sp.MergeMicros = mergeMicros(cfgs[0], merge, len(cfgs), sp.EstRows, groups)
	sp.CPUMicros += sp.MergeMicros
	sp.TotalMicros += sp.MergeMicros
	return sp
}

// mergeMicros prices the gather merge stage with the executor's own CPU
// cost constants, in microseconds.
func mergeMicros(cfg Config, merge MergeKind, shards int, rows, groups float64) float64 {
	perRow := float64(cfg.Costs.PerRow) / float64(sim.Microsecond)
	perEntry := float64(cfg.Costs.PerEntry) / float64(sim.Microsecond)
	switch merge {
	case MergeOrdered:
		return rows * math.Log2(math.Max(2, float64(shards))) * perEntry
	case MergeGroups:
		return math.Max(groups, 1) * float64(shards) * perRow
	default:
		return float64(shards) * perRow
	}
}
