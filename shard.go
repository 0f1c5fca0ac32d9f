package pioqo

import (
	"fmt"
	"time"

	"pioqo/internal/broker"
	"pioqo/internal/btree"
	"pioqo/internal/exec"
	"pioqo/internal/opt"
	"pioqo/internal/stats"
	"pioqo/internal/table"
)

// Scatter-gather execution over the simulated cluster: a sharded table
// spreads one logical rowset across the nodes, the optimizer plans each
// shard's access path independently under that shard's device band and
// budget split, and the gather operator runs the per-shard scans on their
// own nodes concurrently (one virtual clock), merging decomposable
// partials on the coordinator. Slow shard reads are hedged: a read still
// outstanding past the hedge delay gets a speculative duplicate, first
// completion wins (fault.Hedger), which caps the makespan damage a
// straggling device can do.

// PartitionKind selects how a sharded table spreads rows across nodes.
type PartitionKind int

const (
	// PartitionHash assigns each row by a hash of its C2 key — even row
	// counts whatever the key distribution, but every shard holds every
	// key range, so range predicates cannot prune shards.
	PartitionHash PartitionKind = iota

	// PartitionRange splits the key domain into equal-width slices, shard
	// i holding [cuts[i-1], cuts[i]). Range predicates prune
	// non-overlapping shards; skewed key distributions overload the hot
	// shards.
	PartitionRange

	// PartitionRangeBalanced range-partitions on quantile cuts of the
	// actual key multiset instead of equal-width slices — the rebalanced
	// layout that keeps per-shard row counts near-even under skew while
	// retaining range pruning.
	PartitionRangeBalanced
)

func (k PartitionKind) String() string {
	switch k {
	case PartitionRange:
		return "range"
	case PartitionRangeBalanced:
		return "range-balanced"
	default:
		return "hash"
	}
}

// createShardedTable is CreateTable's multi-node path: it draws the full
// rowset in exactly the order the unsharded constructor would (so the
// union of the partitions is the same multiset whatever the shard count,
// and merged decomposable aggregates are byte-identical to the unsharded
// answer), then deals rows out to per-node heaps with per-shard indexes
// and histograms.
func (s *System) createShardedTable(name string, rows int64, rpp int, o tableOptions) (*Table, error) {
	if o.synthetic {
		return nil, fmt.Errorf("pioqo: table %q: synthetic tables are single-node; partitioning needs materialized columns", name)
	}
	var cols table.Columns
	if o.zipf > 0 {
		cols = table.DrawColumnsZipf(rows, o.seed, o.zipf)
	} else {
		cols = table.DrawColumns(rows, o.seed)
	}

	kind := o.part
	n := len(s.nodes)
	var cuts []int64
	switch kind {
	case PartitionRange:
		cuts = table.EqualWidthCuts(cols.Domain, n)
	case PartitionRangeBalanced:
		cuts = stats.BalancedCuts(cols.C2, n)
	}
	assign := func(key int64) int { return table.HashShard(key, n) }
	if cuts != nil {
		assign = func(key int64) int { return table.RangeShard(key, cuts) }
	}
	parts, _ := cols.Partition(n, assign)

	t := &Table{sys: s, name: name, kind: kind, cuts: cuts, parts: make([]tablePart, n)}
	for i, pc := range parts {
		part := &t.parts[i]
		part.node = s.nodes[i]
		if len(pc.C1) == 0 {
			continue // empty partition: nothing on this node
		}
		prows := int64(len(pc.C1))
		heapPages := (prows + int64(rpp) - 1) / int64(rpp)
		need := heapPages + prows/btree.DefaultLeafCap + 8
		if need > part.node.Manager.Free() {
			return nil, fmt.Errorf("pioqo: table %q shard %d needs %d pages, node device has %d free",
				name, i, need, part.node.Manager.Free())
		}
		mt := table.NewMaterializedFrom(part.node.Manager,
			fmt.Sprintf("%s#%d", name, i), rpp, pc.C1, pc.C2, cols.Domain)
		part.tab = mt
		if !o.noIndex {
			part.idx = btree.NewMaterialized(part.node.Manager, mt, 0, 0)
		}
		part.hist = stats.BuildHistogram(mt, 0)
	}
	s.tables[name] = t
	return t, nil
}

// activeShards returns the shard ids a query over [lo, hi] must touch:
// non-empty partitions whose key range overlaps the predicate. Hash
// partitions cannot prune (every shard holds every key range); range
// partitions drop the shards whose slice misses the predicate entirely.
func (t *Table) activeShards(lo, hi int64) []int {
	var out []int
	for i := range t.parts {
		if t.parts[i].tab == nil {
			continue
		}
		if t.cuts != nil {
			shardLo := int64(0)
			if i > 0 {
				shardLo = t.cuts[i-1]
			}
			if i < len(t.cuts) && lo >= t.cuts[i] { // predicate entirely above the slice
				continue
			}
			if hi < shardLo { // predicate entirely below the slice
				continue
			}
			if lo > hi {
				continue
			}
		}
		out = append(out, i)
	}
	return out
}

// planSharded is Plan's scatter-gather path: each active shard is planned
// independently — its own access path, degree, and prefetch under its
// node's pool capacity and its split of the caller's queue-depth budget —
// and the merge stage is priced on top (opt.ChooseSharded). The public
// plan reports the makespan estimate and carries the per-shard plans for
// scatter.
func (s *System) planSharded(q Query, o PlanOptions) (Plan, error) {
	t := q.Table
	active := t.activeShards(q.Low, q.High)
	if len(active) == 0 {
		// Every shard pruned: the query is answered without touching a
		// device. Report a degenerate plan; the bodies short-circuit.
		return Plan{Method: IndexScan, Degree: 1, Fanout: 0, pruned: len(t.parts)}, nil
	}
	po := o
	po.ShareParties = 0 // circulating scans are single-node
	var budgets []int
	if o.QueueBudget > 0 {
		budgets = broker.SplitCredits(o.QueueBudget, len(active))
	}
	cfgs := make([]opt.Config, len(active))
	ins := make([]opt.Input, len(active))
	for j, si := range active {
		part := &t.parts[si]
		pj := po
		if budgets != nil {
			pj.QueueBudget = budgets[j]
		}
		if err := s.planConfig(part.node, pj, &cfgs[j]); err != nil {
			return Plan{}, err
		}
		ins[j] = part.input(q)
	}
	sp := opt.ChooseSharded(s.pcache.Choose, cfgs, ins, opt.MergeScalar, 0)

	// The public shape mirrors the slowest shard's choice (the one the
	// makespan estimate is pinned to); per-shard plans ride along for the
	// executor.
	tmpl := sp.Shards[0]
	for _, p := range sp.Shards[1:] {
		if p.TotalMicros > tmpl.TotalMicros {
			tmpl = p
		}
	}
	pub := fromInternalPlan(tmpl)
	pub.Shared = false
	pub.EstimatedCost = time.Duration(sp.TotalMicros * 1e3)
	pub.EstimatedIO = time.Duration(sp.IOMicros * 1e3)
	pub.EstimatedCPU = time.Duration(sp.CPUMicros * 1e3)
	pub.EstimatedRows = sp.EstRows
	pub.Fanout = len(active)
	pub.scatter = &scatterPlan{plans: sp.Shards, active: active}
	pub.pruned = len(t.parts) - len(active)
	return pub, nil
}

// scatter settles a sharded query's reported plan shape — static degree,
// fanout, pruned count — and returns the shards its scans run on: those
// that survive partition pruning.
func (r *queryRun) scatter(q Query, plan *Plan) []int {
	var active []int
	if plan.scatter != nil {
		active = plan.scatter.active
	} else {
		active = q.Table.activeShards(q.Low, q.High)
	}
	r.pin(plan)
	plan.Shared = false // circulating scans are single-node
	plan.Fanout = len(active)
	plan.pruned = len(q.Table.parts) - len(active)
	r.active = active
	return active
}

// scans builds the active shards' node-local scans as the query runs,
// each under its own plan when the plan carries them, under the
// plan's uniform shape for a caller's WithPlan one. All of
// them share the run's progress counter, abort control and lease, so live
// progress, cancellation and governance span the cluster.
func (r *queryRun) scans(q Query, plan Plan, active []int) []exec.ShardScan {
	out := make([]exec.ShardScan, len(active))
	for j, si := range active {
		part := &q.Table.parts[si]
		shardPlan := plan
		if plan.scatter != nil {
			shardPlan = fromInternalPlan(plan.scatter.plans[j])
		}
		out[j] = exec.ShardScan{Ctx: r.context(part.node), Spec: r.spec(part, q, &shardPlan)}
	}
	return out
}

// setHedgers arms or disarms every node's straggler hedger: a drain arms
// them for exactly its window, so calibration and other traffic never see
// speculative duplicates; each hedge decision is recorded as it is made. A
// system without a hedge delay never arms them.
func (s *System) setHedgers(armed bool) {
	for _, n := range s.nodes {
		switch {
		case n.Hedge == nil:
		case armed && s.hedge != 0:
			n.Hedge.Arm()
		default:
			n.Hedge.Disarm()
		}
	}
}
