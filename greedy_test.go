package pioqo

import "testing"

// TestGreedyPlanningServesSameAnswers is the engine-level A/B for the
// serving plan path: a system whose every query carries
// PlanOptions.GreedyPlanning answers — standalone and concurrent —
// identically to the default system, and its planner traffic flows through
// the parameterized band cache.
func TestGreedyPlanningServesSameAnswers(t *testing.T) {
	def, dtab := newCalibrated(t, SSD, 50000, 33)
	gr, gtab := newCalibrated(t, SSD, 50000, 33)
	greedy := WithPlanOptions(PlanOptions{GreedyPlanning: true})

	windows := [][2]int64{{0, 49}, {100, 599}, {7000, 7499}, {0, 24999}, {0, 49999}}
	for _, w := range windows {
		rd, err := def.Execute(Query{Table: dtab, Low: w[0], High: w[1]}, Cold())
		if err != nil {
			t.Fatal(err)
		}
		rg, err := gr.Execute(Query{Table: gtab, Low: w[0], High: w[1]}, Cold(), greedy)
		if err != nil {
			t.Fatal(err)
		}
		if rg.Rows != rd.Rows || rg.Value != rd.Value || rg.Found != rd.Found {
			t.Errorf("[%d,%d]: greedy answered rows=%d max=%d, default rows=%d max=%d",
				w[0], w[1], rg.Rows, rg.Value, rd.Rows, rd.Value)
		}
	}

	// Concurrent sessions share the same parameterized cache.
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
		if gres.Results[i].Rows != dres.Results[i].Rows ||
			gres.Results[i].Value != dres.Results[i].Value {
			t.Errorf("concurrent query %d: greedy rows=%d max=%d, default rows=%d max=%d",
				i, gres.Results[i].Rows, gres.Results[i].Value,
				dres.Results[i].Rows, dres.Results[i].Value)
		}
	}

	gs, ds := gr.PlannerStats(), def.PlannerStats()
	if gs.BandHits+gs.BandMisses+gs.GreedyFallbacks == 0 {
		t.Errorf("greedy system saw no band-cache traffic: %+v", gs)
	}
	if gs.MemoMisses != 0 {
		t.Errorf("greedy system leaked %d optimizations into the memo", gs.MemoMisses)
	}
	if ds.BandHits+ds.BandMisses != 0 {
		t.Errorf("default system leaked into the band cache: %+v", ds)
	}
	if ds.MemoMisses == 0 {
		t.Errorf("default system planned nothing through the memo: %+v", ds)
	}
}

// TestWithGreedyPlanningOption covers the per-query opt-in: on a default
// system one query routes through the band cache, and repeated shifted
// windows in one selectivity band bind as hits.
func TestWithGreedyPlanningOption(t *testing.T) {
	sys, tab := newCalibrated(t, SSD, 50000, 33)
	q := Query{Table: tab, Low: 100, High: 174} // 0.15%: deep IS territory

	def, err := sys.Plan(q, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := sys.Plan(q, PlanOptions{GreedyPlanning: true})
	if err != nil {
		t.Fatal(err)
	}
	if greedy.Method != def.Method || greedy.Degree != def.Degree {
		t.Errorf("greedy planned %v, default planned %v", greedy, def)
	}

	for i := int64(0); i < 8; i++ {
		shifted := Query{Table: tab, Low: 200 + i, High: 274 + i}
		if _, err := sys.Plan(shifted, PlanOptions{GreedyPlanning: true}); err != nil {
			t.Fatal(err)
		}
	}
	if st := sys.PlannerStats(); st.BandHits == 0 {
		t.Errorf("shifted same-band windows never hit the band cache: %+v", st)
	}

	rd, err := sys.Execute(q, Cold())
	if err != nil {
		t.Fatal(err)
	}
	rg, err := sys.Execute(q, Cold(), WithPlanOptions(PlanOptions{GreedyPlanning: true}))
	if err != nil {
		t.Fatal(err)
	}
	if rg.Rows != rd.Rows || rg.Value != rd.Value {
		t.Errorf("greedy execution answered rows=%d max=%d, default rows=%d max=%d",
			rg.Rows, rg.Value, rd.Rows, rd.Value)
	}
}

// TestGreedyPlanBandHitsDoNotAllocate is the serving gate at the surface the
// suite drives: System.Plan on the greedy path, rotating plan_serving's
// three option sets, allocates nothing once each shape's band is cached —
// no degree grid, no grid key, no front-cache entry, no config on the heap.
func TestGreedyPlanBandHitsDoNotAllocate(t *testing.T) {
	sys, tab := newCalibrated(t, SSD, 50000, 33)
	options := []PlanOptions{
		{GreedyPlanning: true},
		{GreedyPlanning: true, QueueBudget: 8},
		{GreedyPlanning: true, ShareParties: 4},
	}
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
