package main

import "pioqo"

// before is one system's cumulative counters ahead of a pass.
type before struct {
	metrics pioqo.MetricsSnapshot
	planner pioqo.PlannerStats
	faults  pioqo.FaultStats
}

func snapshot(systems []*pioqo.System) []before {
	out := make([]before, len(systems))
	for i, sys := range systems {
		out[i] = before{sys.MetricsSnapshot(), sys.PlannerStats(), sys.FaultStats()}
	}
	return out
}

// counters maps the engine registry's cumulative counters onto the per-layer
// count metrics of the same name.
var counters = []string{
	"device.requests", "device.bytes",
	"buffer.hits", "buffer.misses", "buffer.evictions", "buffer.prefetch_reads",
	"buffer.prefetched_pages", "buffer.dirty_writes", "buffer.read_errors",
	"scanshare.attaches", "scanshare.laps",
	"exec.scans", "exec.rows_matched", "exec.read_faults",
	"opt.optimizations", "opt.plans_enumerated",
	"broker.admissions", "broker.shared_admissions", "broker.replans", "broker.reclaims", "broker.grows",
	"shard.scatters", "shard.partials", "shard.pruned", "shard.hedge_issued",
	"adapt.retunes", "adapt.grows", "adapt.shrinks", "adapt.spec_issued", "adapt.spec_canceled",
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerCounts reads what each layer did during a pass: the registry,
// planner, hedger and injector deltas summed over the pass's systems, plus
// the counts only the workload itself could see. All of it is
// deterministic and must repeat exactly. The registry carries the
// coordinator node's device and pool, so on the 8-shard cluster device.*
// and buffer.* are node 0's share.
func layerCounts(systems []*pioqo.System, was []before, p passResult) map[string]float64 {
	c := make(map[string]float64, 2*len(counters))
	var latencyNs, depthTime, elapsed, specHits, hedgeWins float64
	var memoHits, memoMisses, bandHits, bandMisses, greedy, fallbacks float64
	for i, sys := range systems {
		d := sys.MetricsSince(was[i].metrics)
		for _, name := range counters {
			c[name] += float64(d.Counter(name))
		}
		latencyNs += float64(d.Counter("device.latency_ns"))
		depthTime += d.Gauges["device.queue_depth"].Mean * float64(d.Elapsed)
		elapsed += float64(d.Elapsed)
		specHits += float64(d.Counter("adapt.spec_hits"))
		hedgeWins += float64(d.Counter("shard.hedge_wins"))

		ps, was := sys.PlannerStats(), was[i]
		memoHits += float64(ps.MemoHits - was.planner.MemoHits)
		memoMisses += float64(ps.MemoMisses - was.planner.MemoMisses)
		bandHits += float64(ps.BandHits - was.planner.BandHits)
		bandMisses += float64(ps.BandMisses - was.planner.BandMisses)
		greedy += float64(ps.GreedyPlans - was.planner.GreedyPlans)
		fallbacks += float64(ps.GreedyFallbacks - was.planner.GreedyFallbacks)
		fs := sys.FaultStats()
		c["fault.stragglers"] += float64(fs.Stragglers - was.faults.Stragglers)
		c["fault.errors"] += float64(fs.Errors - was.faults.Errors)
	}
	c["device.mean_queue_depth"] = ratio(depthTime, elapsed)
	c["device.read_latency_us_mean"] = ratio(latencyNs, c["device.requests"]) / 1e3
	c["buffer.hit_ratio"] = ratio(c["buffer.hits"], c["buffer.hits"]+c["buffer.misses"])
	c["opt.memo_hit_ratio"] = ratio(memoHits, memoHits+memoMisses)
	c["opt.band_hit_ratio"] = ratio(bandHits, bandHits+bandMisses)
	c["opt.greedy_fallback_ratio"] = ratio(fallbacks, fallbacks+greedy)
	c["shard.hedge_win_ratio"] = ratio(hedgeWins, c["shard.hedge_issued"])
	c["adapt.spec_hit_ratio"] = ratio(specHits, c["adapt.spec_issued"])
	c["broker.admission_wait_share"] = 0
	c["adapt.gap_to_best_static_pct"] = 0
	for name, v := range p.counts {
		c[name] = v
	}
	return c
}
