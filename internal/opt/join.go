package opt

import (
	"pioqo/internal/exec"
	"pioqo/internal/sim"
)

// JoinPlan is a costed join plan: the algorithm plus one access path per
// side. For an index nested-loop join, Probe carries the lookup degree
// rather than a scan plan.
type JoinPlan struct {
	Method exec.JoinMethod
	Build  Plan
	Probe  Plan
	// TotalMicros is the estimated join cost.
	TotalMicros float64
}

// ChooseJoin picks the join algorithm and the access paths for both sides.
// The phases run back to back, so each side is optimized with the device's
// full queue depth — per phase this is exactly the single-table problem the
// paper solves; the join-level decisions (hash vs index nested-loop, and
// each side's method and degree) all fall out of the same QDTT-priced
// costs. The probe input's range should already match the build range.
func ChooseJoin(cfg Config, build, probe Input) JoinPlan {
	// Both methods hash every build row on the build's workers.
	b := chooseFeeding(&cfg, build, cfg.Costs.HashInsert)

	// Hash join: scan the probe range, look every row up on the probe's
	// workers.
	hashProbe := chooseFeeding(&cfg, probe, cfg.Costs.HashProbe)
	best := JoinPlan{
		Method: exec.HashJoin, Build: b, Probe: hashProbe,
		TotalMicros: b.TotalMicros + hashProbe.TotalMicros,
	}

	// Index nested-loop join: one probe-index lookup per build key. Only
	// available when the probe side has an index.
	if probe.Index != nil {
		keys := b.EstRows // ≈ distinct keys when the domain is wide
		if build.Stats != nil {
			// Skewed build sides repeat keys; the NL join looks each
			// distinct key up once.
			keys *= build.Stats.DistinctRatio()
		}
		rowsPerKey := float64(probe.Table.Rows()) / float64(probe.Table.KeyDomain())
		// The executor probes the keys in ascending order, so consecutive
		// lookups mostly hit the same (pooled) leaf page: leaf I/O is
		// bounded by the leaves spanning the probed key range, not by the
		// key count.
		rangeFrac := selectivity(&probe, build.Lo, build.Hi)
		leafFetches := rangeFrac * float64(probe.Index.Leaves())
		if leafFetches > keys {
			leafFetches = keys
		}
		// The driver sorts the distinct keys before the lookups start.
		sortKeys := 2 * keys * cfg.Costs.PerEntry.Micros()
		for _, d := range cfg.degrees() {
			if cfg.overBudget(d) {
				continue
			}
			depth := capDepth(&cfg, d)
			io := (keys*rowsPerKey + leafFetches) * cfg.Model.PageCost(probe.Table.Pages(), depth)
			workers := d
			if workers > cfg.Cores {
				workers = cfg.Cores
			}
			cpu := keys * (cfg.Costs.PerPage.Micros() +
				rowsPerKey*cfg.Costs.PerRowFetch.Micros()) / float64(workers)
			startup := cfg.startupMicros(d)
			total := b.TotalMicros + maxf(io, cpu) + startup + sortKeys
			if total < best.TotalMicros {
				best = JoinPlan{
					Method: exec.IndexNLJoin,
					Build:  b,
					Probe: Plan{
						Method: exec.IndexScan, Degree: d, Depth: int32(depth),
						EstRows: keys * rowsPerKey, EstPageIO: keys*rowsPerKey + leafFetches,
						IOMicros: io, CPUMicros: cpu + startup, TotalMicros: maxf(io, cpu) + startup,
					},
					TotalMicros: total,
				}
			}
		}
	}
	return best
}

// chooseFeeding returns the cheapest plan for a scan that feeds a hash
// operator: every row it matches also costs perRow of CPU, paid by the
// worker that delivers it (exec.Spec.EmitCost), so that work joins the
// plan's CPU inside its max(io, cpu), divided over its workers.
func chooseFeeding(cfg *Config, in Input, perRow sim.Duration) Plan {
	cfg.validate()
	est := newEstimator(cfg, &in)
	cc := bindCosting(&in, selectivity(&in, in.Lo, in.Hi), &est)
	var buf [maxCandidates]Plan
	var best Plan
	for i, p := range enumerate(cfg, &in, &cc, buf[:0]) {
		startup := cfg.startupMicros(p.Degree)
		cpu := p.CPUMicros - startup + p.EstRows*perRow.Micros()/float64(min(p.Degree, cfg.Cores))
		p.CPUMicros, p.TotalMicros = cpu+startup, maxf(p.IOMicros, cpu)+startup
		if i == 0 || p.TotalMicros < best.TotalMicros {
			best = p
		}
	}
	return best
}

// Specs converts the join plan into the executor's JoinSpec.
func (jp JoinPlan) Specs(build, probe Input, agg exec.AggKind) exec.JoinSpec {
	return exec.JoinSpec{
		Method: jp.Method,
		Build:  jp.Build.Spec(build),
		Probe:  jp.Probe.Spec(probe),
		Agg:    agg,
	}
}
