package pioqo

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestGreedyPlanningServesSameAnswers pins the deprecated option: a system
// whose every query carries PlanOptions.GreedyPlanning plans, answers and
// counts — standalone and concurrent — exactly as one whose queries do not,
// and both plan through the band cache.
func TestGreedyPlanningServesSameAnswers(t *testing.T) {
	def, dtab := newCalibrated(t, SSD, 50000, 33)
	gr, gtab := newCalibrated(t, SSD, 50000, 33)
	greedy := WithPlanOptions(PlanOptions{GreedyPlanning: true})

	windows := [][2]int64{{0, 49}, {100, 599}, {7000, 7499}, {0, 24999}, {0, 49999}}
	for _, w := range windows {
		rd, err := def.Run(context.Background(), Query{Table: dtab, Low: w[0], High: w[1]}, Cold())
		if err != nil {
			t.Fatal(err)
		}
		rg, err := gr.Run(context.Background(), Query{Table: gtab, Low: w[0], High: w[1]}, Cold(), greedy)
		if err != nil {
			t.Fatal(err)
		}
		if rg.Rows != rd.Rows || rg.Value != rd.Value || rg.Found != rd.Found || rg.Plan != rd.Plan || rg.Runtime != rd.Runtime {
			t.Errorf("[%d,%d]: with the option %v rows=%d in %v, without %v rows=%d in %v",
				w[0], w[1], rg.Plan, rg.Rows, rg.Runtime, rd.Plan, rd.Rows, rd.Runtime)
		}
	}

	var dq, gq []Query
	for _, w := range [][2]int64{{0, 499}, {500, 999}, {10000, 10499}, {0, 49999}} {
		dq = append(dq, Query{Table: dtab, Low: w[0], High: w[1]})
		gq = append(gq, Query{Table: gtab, Low: w[0], High: w[1]})
	}
	dres, err := def.ExecuteConcurrent(dq, Cold())
	if err != nil {
		t.Fatal(err)
	}
	gres, err := gr.ExecuteConcurrent(gq, Cold(), greedy)
	if err != nil {
		t.Fatal(err)
	}
	for i := range dres.Results {
		g, d := gres.Results[i], dres.Results[i]
		if g.Rows != d.Rows || g.Value != d.Value || g.Plan != d.Plan || g.Runtime != d.Runtime {
			t.Errorf("concurrent query %d: with the option %v rows=%d in %v, without %v rows=%d in %v",
				i, g.Plan, g.Rows, g.Runtime, d.Plan, d.Rows, d.Runtime)
		}
	}

	gs, ds := gr.PlannerStats(), def.PlannerStats()
	if gs != ds {
		t.Errorf("planner traffic with the option %+v, without %+v", gs, ds)
	}
	if ds.BandHits+ds.BandMisses == 0 || ds.MemoHits+ds.MemoMisses != 0 {
		t.Errorf("planning did not go through the band cache alone: %+v", ds)
	}
}

// TestWithGreedyPlanningOption: on one system the option changes nothing
// per query either — a flagged plan and an unflagged one of the same
// constants are one band entry, shifted windows in its band bind as hits,
// and the executed answers agree.
func TestWithGreedyPlanningOption(t *testing.T) {
	sys, tab := newCalibrated(t, SSD, 50000, 33)
	q := Query{Table: tab, Low: 100, High: 174} // 0.15%: deep IS territory

	greedy, err := sys.Plan(q, PlanOptions{GreedyPlanning: true})
	if err != nil {
		t.Fatal(err)
	}
	before := sys.PlannerStats()
	def, err := sys.Plan(q, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if greedy != def {
		t.Errorf("with the option planned %v, without %v", greedy, def)
	}
	if st := sys.PlannerStats(); st.BandHits != before.BandHits+1 || st.BandMisses != before.BandMisses {
		t.Errorf("the unflagged repeat was not a hit on the flagged plan's entry: %+v → %+v", before, st)
	}

	for i := int64(0); i < 8; i++ {
		shifted := Query{Table: tab, Low: 200 + i, High: 274 + i}
		if _, err := sys.Plan(shifted, PlanOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if st := sys.PlannerStats(); st.BandHits < before.BandHits+9 {
		t.Errorf("shifted same-band windows never hit the band cache: %+v", st)
	}

	rd, err := sys.Run(context.Background(), q, Cold())
	if err != nil {
		t.Fatal(err)
	}
	rg, err := sys.Run(context.Background(), q, Cold(), WithPlanOptions(PlanOptions{GreedyPlanning: true}))
	if err != nil {
		t.Fatal(err)
	}
	if rg.Rows != rd.Rows || rg.Value != rd.Value || rg.Plan != rd.Plan {
		t.Errorf("with the option ran %v rows=%d max=%d, without %v rows=%d max=%d",
			rg.Plan, rg.Rows, rg.Value, rd.Plan, rd.Rows, rd.Value)
	}
}

// TestGreedyPlanBandHitsDoNotAllocate is the serving gate at the surface the
// suite drives: System.Plan, rotating plan_serving's three option sets,
// allocates nothing once each shape's band is cached — no degree grid, no
// grid key, no front-cache entry, no config on the heap.
func TestGreedyPlanBandHitsDoNotAllocate(t *testing.T) {
	sys, tab := newCalibrated(t, SSD, 50000, 33)
	options := []PlanOptions{{}, {QueueBudget: 8}, {ShareParties: 4}}
	q := Query{Table: tab, Low: 100, High: 174} // 0.15 %: deep in index-scan territory
	for _, po := range options {
		if _, err := sys.Plan(q, po); err != nil {
			t.Fatal(err)
		}
	}
	before, i := sys.PlannerStats(), 0
	allocs := testing.AllocsPerRun(300, func() {
		q.Low, q.High = q.Low+1, q.High+1 // the constants drift, the band holds
		if _, err := sys.Plan(q, options[i%len(options)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 0 {
		t.Errorf("System.Plan on band hits allocates %.2f/op, want 0", allocs)
	}
	after := sys.PlannerStats()
	if after.BandHits-before.BandHits != int64(i) || after.GreedyFallbacks != before.GreedyFallbacks {
		t.Errorf("the measured plans were not all band hits: %+v → %+v", before, after)
	}
}

// shape names a plan's shape: method and degree, prefetch, sharing.
func shape(p *Plan) string {
	return fmt.Sprintf("%v%d+pf%d shared=%t", p.Method, p.Degree, p.Prefetch, p.Shared)
}

// TestPlanTracksExplainsCheapest is the quality gate of the one plan path:
// over a drifting stream of lookups — log-uniform selectivity 1e-5…0.5,
// cycling plan_serving's three option sets — every plan System.Plan serves
// from the band cache is one of Explain's candidates, and on average it
// prices within 0.5 % of Explain's cheapest, per device and with prefetch
// planning off and on.
func TestPlanTracksExplainsCheapest(t *testing.T) {
	const rows, lookups, bound = 50000, 3000, 1.005
	options := []PlanOptions{{}, {QueueBudget: 8}, {ShareParties: 4}}
	for _, dev := range []DeviceKind{SSD, HDD} {
		sys, tab := newCalibrated(t, dev, rows, 33)
		for _, prefetch := range []bool{false, true} {
			rng := rand.New(rand.NewSource(56))
			var sum, worst float64
			var over int
			var worstAt string
			for i := 0; i < lookups; i++ {
				sel := math.Exp(math.Log(1e-5) + rng.Float64()*(math.Log(0.5)-math.Log(1e-5)))
				width := max(int64(sel*rows), 1)
				lo := rng.Int63n(rows - width + 1)
				q := Query{Table: tab, Low: lo, High: lo + width - 1}
				po := options[i%len(options)]
				po.EnablePrefetchPlanning = prefetch
				plan, err := sys.Plan(q, po)
				if err != nil {
					t.Fatal(err)
				}
				candidates, err := sys.Explain(q, po)
				if err != nil {
					t.Fatal(err)
				}
				var pick *Plan
				for j, c := range candidates {
					if c.Method == plan.Method && c.Degree == plan.Degree && c.Prefetch == plan.Prefetch && c.Shared == plan.Shared {
						pick = &candidates[j]
						break
					}
				}
				if pick == nil {
					t.Fatalf("%v prefetch=%t [%d,%d] %+v: plan %v is not among Explain's candidates",
						dev, prefetch, q.Low, q.High, po, plan)
				}
				ratio := float64(pick.EstimatedCost) / float64(candidates[0].EstimatedCost)
				sum += ratio
				if ratio > 1.10 {
					over++
				}
				if ratio > worst {
					worst = ratio
					worstAt = fmt.Sprintf("%d rows, budget %d, parties %d: %s at %v, cheapest %s at %v",
						width, po.QueueBudget, po.ShareParties, shape(pick), pick.EstimatedCost,
						shape(&candidates[0]), candidates[0].EstimatedCost)
				}
			}
			mean := sum / lookups
			t.Logf("%v prefetch=%t: mean %.4f, %d picks above 1.10, worst %.4f at %s",
				dev, prefetch, mean, over, worst, worstAt)
			if mean > bound {
				t.Errorf("%v prefetch=%t: plans price %.4f of Explain's cheapest on average, bound %.3f",
					dev, prefetch, mean, bound)
			}
		}
	}
}
