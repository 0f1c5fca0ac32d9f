package exec

import (
	"fmt"
	"sort"

	"pioqo/internal/btree"
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
	// range); for an index nested-loop join only its Table, Index, and
	// Degree are used — each build key becomes one index lookup.
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

// RunJoin dispatches on the join method.
func RunJoin(p *sim.Proc, ctx *Context, spec JoinSpec) JoinResult {
	if spec.Method == IndexNLJoin {
		return RunIndexNLJoin(p, ctx, spec)
	}
	return RunHashJoin(p, ctx, spec)
}

// buildMultiplicities runs the build scan, returning key → row count and
// the scan's abort cause.
func buildMultiplicities(p *sim.Proc, ctx *Context, build Spec) (map[int64]int64, int64, error) {
	ht := make(map[int64]int64)
	build.Emit = func(_ int64, row table.Row) { ht[row.C2]++ }
	res := RunScan(p, ctx, build)
	useCPU(p, ctx, sim.Duration(res.RowsMatched)*hashInsertCost)
	return ht, res.RowsMatched, res.Err
}

// RunHashJoin executes the join from process context. The build scan
// populates a multiplicity map keyed by C2; the probe scan looks each of
// its matching rows up and aggregates once per joined pair.
func RunHashJoin(p *sim.Proc, ctx *Context, spec JoinSpec) JoinResult {
	var out JoinResult

	// Phase 1: build. The scan's Emit collects key multiplicities; the
	// hash-insert CPU is charged in bulk afterwards (the fine-grained
	// per-row CPU is already charged by the scan itself).
	ht, buildRows, err := buildMultiplicities(p, ctx, spec.Build)
	out.BuildRows = buildRows
	if out.Err = err; err != nil {
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
	probeRes := RunScan(p, ctx, probe)
	out.ProbeRows = probeRes.RowsMatched
	useCPU(p, ctx, sim.Duration(out.ProbeRows)*hashProbeCost)

	out.Result = result.result()
	out.RowsMatched = out.Pairs
	out.Err = probeRes.Err
	return out
}

// RunIndexNLJoin executes the index nested-loop variant: after the build
// phase, the distinct build keys are sorted and distributed to Probe.Degree
// workers; each key becomes one lookup in the probe table's index followed
// by heap fetches for its matching rows. The workers' outstanding lookups
// are what give the device its queue depth. Every read runs under the probe
// spec's fault policy (Ctl, Retry) and workers poll the control per key, so
// a failed read or a tripped deadline winds the join down like a scan.
func RunIndexNLJoin(p *sim.Proc, ctx *Context, spec JoinSpec) JoinResult {
	if spec.Probe.Index == nil {
		panic("exec: IndexNLJoin without a probe-side index")
	}
	var out JoinResult
	ht, buildRows, err := buildMultiplicities(p, ctx, spec.Build)
	out.BuildRows = buildRows
	if out.Err = err; err != nil {
		return out
	}

	keys := make([]int64, 0, len(ht))
	for k := range ht {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	useCPU(p, ctx, 2*sim.Duration(len(keys))*ctx.Costs.PerEntry) // sort

	probe := &spec.Probe
	probeTab := probe.Table
	x := probe.Index
	rpp := probeTab.RowsPerPage()
	degree := probe.Degree
	if degree <= 0 {
		degree = 1
	}

	dbud := newBudget(ctx, nil)
	for _, pg := range x.DescentPath() {
		h, ok := dbud.fetchRetry(p, probe, x.File(), pg)
		if !ok {
			out.Err = probe.Ctl.Err()
			return out
		}
		useCPU(p, ctx, ctx.Costs.PerPage)
		h.Release()
	}

	results := newAggs(spec.Agg, degree)
	var pairs, probeRows int64
	nextKey := 0
	wg := sim.NewWaitGroup(ctx.Env)
	for w := 0; w < degree; w++ {
		w := w
		wg.Add(1)
		ctx.Env.Go(fmt.Sprintf("nlj-w%d", w), func(wp *sim.Proc) {
			defer wg.Done()
			bud := newBudget(ctx, nil)
			defer bud.settle(wp)
			if degree > 1 {
				bud.charge(ctx.Costs.WorkerStartup)
			}
			var buf []btree.Entry
			for {
				// The key is the abort quantum for NL-join workers.
				i := nextKey
				if i >= len(keys) || probe.aborted() {
					return
				}
				nextKey = i + 1
				key := keys[i]
				mult := ht[key]

				pos, end := x.SearchGE(key), x.SearchGT(key)
				for pos < end {
					leaf, slot := x.LeafOf(pos)
					lh, ok := bud.fetchRetry(wp, probe, x.File(), x.LeafPage(leaf))
					if !ok {
						return
					}
					buf = x.LeafEntries(leaf, buf)
					take := len(buf) - slot
					if rem := end - pos; int64(take) > rem {
						take = int(rem)
					}
					bud.charge(ctx.Costs.PerPage +
						sim.Duration(take)*ctx.Costs.PerEntry)
					lh.Release()
					// buf is only rewritten by the next LeafEntries call, so
					// the heap-fetch loop can consume the slice in place.
					for _, e := range buf[slot : slot+take] {
						th, ok := bud.fetchRetry(wp, probe, probeTab.File(), table.PageOf(e.Row, rpp))
						if !ok {
							return
						}
						bud.charge(ctx.Costs.PerRowFetch)
						row := probeTab.RowAt(e.Row)
						if row.C2 == key {
							probeRows++
							for m := int64(0); m < mult; m++ {
								results[w].add(row.C1)
							}
							pairs += mult
						}
						th.Release()
					}
					// The leaf's probe batch is the settle quantum.
					bud.settle(wp)
					pos += int64(take)
				}
			}
		})
	}
	p.WaitFor(wg)

	out.Result = mergeAggs(spec.Agg, results)
	out.ProbeRows = probeRows
	out.Pairs = pairs
	out.RowsMatched = pairs
	out.Err = probe.Ctl.Err()
	return out
}

// ExecuteJoin runs the join to completion on ctx's environment with
// per-query metering, like Execute does for scans.
func ExecuteJoin(ctx *Context, spec JoinSpec) JoinResult {
	var res JoinResult
	ctx.Dev.Metrics().Reset()
	ctx.Pool.ResetStats()
	start := ctx.Env.Now()
	ctx.Env.Go("join", func(p *sim.Proc) {
		res = RunJoin(p, ctx, spec)
	})
	ctx.Env.Run()
	res.Runtime = sim.Duration(ctx.Env.Now() - start)
	res.IO = ctx.Dev.Metrics().Snapshot()
	res.Pool = ctx.Pool.Stats
	return res
}
