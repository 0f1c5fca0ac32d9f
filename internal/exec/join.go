package exec

import (
	"sort"

	"pioqo/internal/sim"
	"pioqo/internal/table"
)

// JoinSpec describes a parallel hash join over the C2 columns of two
// tables — the "more complex database operators" the paper's conclusion
// defers to future work, built on the same QDTT-priced scans:
//
//	SELECT agg(probe.C1) FROM probe JOIN build ON probe.C2 = build.C2
//	WHERE build.C2 BETWEEN lo AND hi
//
// The equality predicate propagates the range to the probe side, so *both*
// scans carry the predicate and both can be optimized independently —
// including their access method and parallel degree, exactly the
// "distribute parallelism opportunities among query operators" problem the
// paper motivates. The two phases run back to back, each with the device's
// full beneficial queue depth.
type JoinSpec struct {
	// Method selects the join algorithm (hash by default).
	Method JoinMethod
	// Build is the scan feeding the join. Its Lo/Hi carry the WHERE range.
	Build Spec
	// Probe describes the probed table. For a hash join it is the scan
	// whose rows look up the hash table (its Lo/Hi are narrowed to Build's
	// range); for an index nested-loop join each build key becomes one index
	// lookup by Degree workers — its Method, prefetch and readahead knobs are
	// unused.
	Probe Spec
	// Agg aggregates probe-side C1 over the joined pairs.
	Agg AggKind
}

// JoinMethod selects a join algorithm.
type JoinMethod int

const (
	// HashJoin scans the probe range and hashes (§2's "parallel hash join").
	HashJoin JoinMethod = iota
	// IndexNLJoin performs one probe-index lookup per distinct build key
	// (§2's "parallel nested loop join", index-driven). Its I/O is random
	// probe-page fetches at the workers' queue depth — the access pattern
	// the QDTT model prices — so it wins when the build side yields few
	// keys against a wide probe range.
	IndexNLJoin
)

func (m JoinMethod) String() string {
	if m == IndexNLJoin {
		return "IndexNLJoin"
	}
	return "HashJoin"
}

// JoinCPUCosts extends CPUCosts with the hash-table operations. They are
// deliberately part of the same struct literal style as the scan costs.
const (
	hashInsertCost = 200 * sim.Nanosecond
	hashProbeCost  = 150 * sim.Nanosecond
)

// JoinResult extends Result with per-phase detail. The embedded Err is the
// abort cause of whichever phase tripped the specs' shared control; the
// counts are then partial and must be discarded, as with GroupByResult.
type JoinResult struct {
	Result
	BuildRows int64 // rows inserted into the hash table
	ProbeRows int64 // probe-side rows inspected
	Pairs     int64 // joined pairs produced
}

// RunJoin executes the join from process context. The build scan populates
// a multiplicity map keyed by C2; the probe phase — a scan for the hash
// join, per-key index lookups for the nested-loop join — looks each of its
// matching rows up and aggregates once per joined pair.
func RunJoin(p *sim.Proc, ctx *Context, spec JoinSpec) JoinResult {
	if spec.Method == IndexNLJoin && spec.Probe.Index == nil {
		panic("exec: IndexNLJoin without a probe-side index")
	}
	var out JoinResult

	// Phase 1: build. The scan's Emit collects key multiplicities; the
	// hash-insert CPU is charged in bulk afterwards (the fine-grained
	// per-row CPU is already charged by the scan itself).
	ht := make(map[int64]int64)
	build := spec.Build
	build.Emit = func(_ int64, row table.Row) { ht[row.C2]++ }
	buildRes := RunScan(p, ctx, build)
	useCPU(p, ctx, sim.Duration(buildRes.RowsMatched)*hashInsertCost)
	out.BuildRows = buildRes.RowsMatched
	if out.Err = buildRes.Err; out.Err != nil {
		return out
	}

	// Phase 2: probe, narrowed to the build range (keys outside it cannot
	// join).
	probe := spec.Probe
	if probe.Lo < spec.Build.Lo {
		probe.Lo = spec.Build.Lo
	}
	if probe.Hi > spec.Build.Hi {
		probe.Hi = spec.Build.Hi
	}
	result := agg{kind: spec.Agg}
	probe.Emit = func(_ int64, row table.Row) {
		if m := ht[row.C2]; m > 0 {
			for i := int64(0); i < m; i++ {
				result.add(row.C1)
			}
			out.Pairs += m
		}
	}
	var err error
	if spec.Method == IndexNLJoin {
		out.ProbeRows = probeByKey(p, ctx, probe, ht)
		err = probe.Ctl.Err()
	} else {
		probeRes := RunScan(p, ctx, probe)
		out.ProbeRows, err = probeRes.RowsMatched, probeRes.Err
		useCPU(p, ctx, sim.Duration(out.ProbeRows)*hashProbeCost)
	}

	out.Result = result.result()
	out.RowsMatched, out.Err = out.Pairs, err
	return out
}

// probeByKey is the index nested-loop probe: the distinct build keys are
// sorted and claimed one at a time by probe.Degree workers; each key becomes
// one lookup in the probe table's index followed by heap fetches for its
// matching rows — the same leaf batches an index scan runs, without its
// per-worker prefetch. The workers' outstanding lookups are what give the
// device its queue depth. The fleet runs under the probe spec, so its
// workers report to the probe's governor and event log, every read runs
// under its fault policy (Ctl, Retry), and workers poll the control per key:
// a failed read or a tripped deadline winds the join down like a scan. It
// returns the number of probe rows inspected.
func probeByKey(p *sim.Proc, ctx *Context, probe Spec, ht map[int64]int64) int64 {
	keys := make([]int64, 0, len(ht))
	for k := range ht {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	useCPU(p, ctx, 2*sim.Duration(len(keys))*ctx.Costs.PerEntry) // sort

	if probe.Degree <= 0 {
		probe.Degree = 1
	}
	probe.PrefetchPerWorker, probe.Tune = 0, nil
	x := probe.Index

	// The lookups are per key, so only the front's descent matters here.
	probe.admitDeep(p)
	fl := newFleet(ctx, &probe)
	if _, _, ok := indexFront(p, ctx, &probe, fl.max); !ok {
		return 0
	}
	nextKey := 0
	fl.run(p, "nlj-w", probe.Degree, func(w *worker) bool {
		// The key is the claim, and so the abort quantum.
		if nextKey >= len(keys) {
			return false
		}
		key := keys[nextKey]
		nextKey++
		for pos, end := x.SearchGE(key), x.SearchGT(key); pos < end; {
			take, ok := indexBatch(ctx, &probe, w, pos, end, nil)
			if !ok {
				return false
			}
			pos += int64(take)
		}
		return true
	})
	return fl.result().RowsMatched
}

// ExecuteJoin runs the join to completion on ctx's environment with
// per-query metering, like Execute does for scans.
func ExecuteJoin(ctx *Context, spec JoinSpec) JoinResult {
	var res JoinResult
	rt, io, pool := metered(ctx, "join", func(p *sim.Proc) { res = RunJoin(p, ctx, spec) })
	res.Runtime, res.IO, res.Pool = rt, io, pool
	return res
}
