package main

import (
	"math"
	"math/rand"

	"pioqo"
)

// planServing is workload plan_serving: planning only, no execution. Two
// calibrated systems (SSD, HDD) each serve a stream of System.Plan lookups
// on the default path (exact-key memo in front of full enumeration) and on
// the greedy path (selectivity-band cache in front of the O(n) fast path),
// constants drifting over log-uniform selectivities 1e-5…0.5. Its virtual
// metrics are the model's estimated costs of the chosen plans.
type planServing struct {
	sys    []*pioqo.System
	tables []*pioqo.Table
	ranges [][2]int64 // cycled; far more than the memo holds, so constants never replay
	sz     sizes
}

// planVariants are the option sets the stream cycles through.
var planVariants = []pioqo.PlanOptions{
	{},
	{QueueBudget: 8},
	{ShareParties: 4},
}

// planChunk is how many Plan calls make one segment, one traced span and
// one latency sample (the chunk's summed estimated cost): a clock reading
// per call would cost more than the greedy path's lookups, and a single
// plan's estimated cost is the same full-scan price for most of the stream.
const planChunk = 4096

func setupPlanServing(seed int64, sz sizes, tr *tracer) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &planServing{sz: sz}
	rows := sz.SweepPages * 33
	for i, dev := range []pioqo.DeviceKind{pioqo.SSD, pioqo.HDD} {
		var tab *pioqo.Table
		sys, err := newSystem(tr, pioqo.Config{Device: dev, PoolPages: sz.PoolPages, Seed: seed},
			sz, func(sys *pioqo.System) (err error) {
				tab, err = createTable(tr, sys, "served", rows, 33,
					pioqo.WithSyntheticData(), pioqo.WithTableSeed(seed+int64(i)))
				return err
			})
		if err != nil {
			return nil, err
		}
		w.sys = append(w.sys, sys)
		w.tables = append(w.tables, tab)
	}
	w.ranges = make([][2]int64, 1<<14)
	for i := range w.ranges {
		sel := math.Exp(math.Log(1e-5) + rng.Float64()*(math.Log(0.5)-math.Log(1e-5)))
		lo, hi := drawRange(rng, rows, sel)
		w.ranges[i] = [2]int64{lo, hi}
	}
	return w, nil
}

func (w *planServing) systems() []*pioqo.System { return w.sys }

// query is the i-th lookup of the stream against table t.
func (w *planServing) query(t *pioqo.Table, i int) (pioqo.Query, pioqo.PlanOptions) {
	r := w.ranges[i%len(w.ranges)]
	return pioqo.Query{Table: t, Low: r[0], High: r[1]}, planVariants[i%len(planVariants)]
}

func (w *planServing) pass(tr *tracer) passResult {
	p := startPass(1)
	for si, sys := range w.sys {
		for _, path := range []struct {
			greedy bool
			n      int
		}{{false, w.sz.PlanDefault}, {true, w.sz.PlanGreedy}} {
			for base := 0; base < path.n; base += planChunk {
				sp := tr.start("Plan", p.ops)
				chunk := 0.0
				for i := base; i < base+planChunk && i < path.n; i++ {
					q, po := w.query(w.tables[si], i)
					po.GreedyPlanning = path.greedy
					plan, err := sys.Plan(q, po)
					if err != nil {
						p.fail("plan [%d,%d]: %v", q.Low, q.High, err)
						continue
					}
					chunk += ms(plan.EstimatedCost)
				}
				tr.end(sp)
				p.lap()
				p.lat = append(p.lat, chunk)
				p.makespanMs += chunk
			}
			p.ops += path.n
		}
	}
	return p
}

// verify compares, on a fixed sample of the stream, the greedy path's plan
// and the depth-oblivious plan with the default path's. Nothing executes in
// this workload, so both are priced by the QDTT model — each as the
// candidate of its shape in the full enumeration, because a band-cache hit
// reports the cost of its band, not of these constants. The first ratio is
// the regret, the second the estimated speed-up.
func (w *planServing) verify(p passResult) verdict {
	var v verdict
	var full, greedy, dtt float64
	for si, sys := range w.sys {
		for i := 0; i < w.sz.PlanSample; i++ {
			q, po := w.query(w.tables[si], i)
			v.checked++
			candidates, err := sys.Explain(q, po)
			if err != nil {
				v.fail("explain [%d,%d]: %v", q.Low, q.High, err)
				continue
			}
			priced := func(po pioqo.PlanOptions) (float64, bool) {
				plan, err := sys.Plan(q, po)
				if err != nil {
					v.fail("plan [%d,%d]: %v", q.Low, q.High, err)
					return 0, false
				}
				for _, c := range candidates {
					if c.Method == plan.Method && c.Degree == plan.Degree && c.Prefetch == plan.Prefetch && c.Shared == plan.Shared {
						return ms(c.EstimatedCost), true
					}
				}
				v.fail("plan %v for [%d,%d] is not among the enumerated candidates", plan, q.Low, q.High)
				return 0, false
			}
			def, ok1 := priced(po)
			po.GreedyPlanning = true
			fast, ok2 := priced(po)
			po.GreedyPlanning, po.DepthOblivious = false, true
			old, ok3 := priced(po)
			if ok1 && ok2 && ok3 {
				full, greedy, dtt = full+def, greedy+fast, dtt+old
			}
		}
	}
	if full > 0 {
		v.regretRatio, v.regretBase = greedy/full, full
		v.speedupVsDTT, v.speedupBase = dtt/full, full
	}
	return v
}
