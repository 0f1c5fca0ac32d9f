package experiments

import (
	"math"
	"math/rand"
	"sort"

	"pioqo/internal/exec"
	"pioqo/internal/opt"
	"pioqo/internal/stats"
	"pioqo/internal/workload"
)

// MixedRow summarises one optimizer's performance over the whole mixed
// workload.
type MixedRow struct {
	Optimizer  string
	Queries    int
	TotalMs    float64
	MeanMs     float64
	P95Ms      float64
	WorstMs    float64
	ParallelQs int // queries the optimizer ran at degree > 1
}

// Mixed is the capstone ablation: a stream of range queries with
// selectivities drawn log-uniformly across four decades runs end to end,
// each query planned and executed cold, once under the DTT-based optimizer
// and once under the QDTT-based one. It answers the deployment question
// the paper's abstract poses — how much does queue-depth awareness matter
// over a whole workload, not just a single cherry-picked query?
func (sc Scale) Mixed(queries int) []MixedRow {
	if queries <= 0 {
		queries = 20
	}
	// Fixed query set, shared by both optimizers.
	rng := rand.New(rand.NewSource(909))
	sels := make([]float64, queries)
	for i := range sels {
		sels[i] = 1e-4 * math.Pow(10, rng.Float64()*3) // 0.01% .. 10%
	}

	run := func(name string, depthOblivious bool) MixedRow {
		s := sc.system(workload.Config{Name: "mixed", RowsPerPage: 33, Device: workload.SSD})
		model := sc.calibrated(s)
		cfg := opt.Config{
			Model:     model,
			Costs:     s.Ctx.Costs,
			Cores:     s.CPU.Capacity(),
			PoolPages: int64(s.Pool.Capacity()),
		}
		if depthOblivious {
			cfg.Model = model.DepthOne()
		}
		row := MixedRow{Optimizer: name, Queries: queries}
		times := make([]float64, 0, queries)
		for _, sel := range sels {
			lo, hi := s.RangeFor(sel)
			in := opt.Input{Table: s.Table, Index: s.Index, Pool: s.Pool, Lo: lo, Hi: hi}
			s.Pool.Flush()
			plan := opt.Choose(cfg, in)
			if plan.Degree > 1 {
				row.ParallelQs++
			}
			res := exec.Execute(s.Ctx, plan.Spec(in))
			ms := res.Runtime.Millis()
			times = append(times, ms)
			row.TotalMs += ms
			if ms > row.WorstMs {
				row.WorstMs = ms
			}
		}
		row.MeanMs = row.TotalMs / float64(queries)
		sort.Float64s(times)
		row.P95Ms = stats.Percentile(times, 0.95)
		return row
	}

	// The two optimizer runs use separate systems and separate calibrations,
	// so they are independent simulations.
	type variant struct {
		name           string
		depthOblivious bool
	}
	variants := []variant{{"old (DTT)", true}, {"new (QDTT)", false}}
	return sweep(sc.workers(), len(variants), func(i int) MixedRow {
		return run(variants[i].name, variants[i].depthOblivious)
	})
}
