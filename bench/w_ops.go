package main

import (
	"fmt"
	"math/rand"

	"pioqo"
)

// operatorMix is workload operator_mix: the buffer, device and executor
// layers used the other ways — updates that dirty pages, joins, a
// single-node group-by, and the paper's Q under the adaptive controller —
// on materialized uniform and Zipf tables, sequential and cold. An SSD
// system carries everything; one HDD cell repeats the adaptive queries.
type operatorMix struct {
	ssd, hdd *pioqo.System
	rounds   int

	updates  []pioqo.UpdateQuery
	joins    []pioqo.JoinQuery
	groups   []pioqo.GroupByQuery
	adaptive []adaptiveQuery

	updated  []int64
	joined   []pioqo.JoinResult
	grouped  []pioqo.GroupByResult
	adaptRes []pioqo.Result
}

type adaptiveQuery struct {
	sys *pioqo.System
	q   pioqo.Query
}

func setupOperatorMix(seed int64, sz sizes, tr *tracer) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &operatorMix{rounds: sz.OpRounds}
	rows := sz.OpRows
	var uniform, zipf, small, hddTab *pioqo.Table
	var err error
	w.ssd, err = newSystem(tr, pioqo.Config{Device: pioqo.SSD, PoolPages: sz.PoolPages, Seed: seed},
		sz, func(sys *pioqo.System) (err error) {
			if uniform, err = createTable(tr, sys, "uniform", rows, 33, pioqo.WithTableSeed(seed)); err != nil {
				return err
			}
			if zipf, err = createTable(tr, sys, "zipf", rows, 33, pioqo.WithTableSeed(seed+1), pioqo.WithZipfData(1.3)); err != nil {
				return err
			}
			small, err = createTable(tr, sys, "small", rows/8, 33, pioqo.WithTableSeed(seed+2))
			return err
		})
	if err != nil {
		return nil, err
	}
	w.hdd, err = newSystem(tr, pioqo.Config{Device: pioqo.HDD, PoolPages: sz.PoolPages, Seed: seed},
		sz, func(sys *pioqo.System) (err error) {
			hddTab, err = createTable(tr, sys, "uniform", rows, 33, pioqo.WithTableSeed(seed))
			return err
		})
	if err != nil {
		return nil, err
	}

	for round := 0; round < sz.OpRounds; round++ {
		for _, sel := range []float64{0.001, 0.02, 0.3} {
			lo, hi := drawRange(rng, rows, sel)
			w.updates = append(w.updates, pioqo.UpdateQuery{Table: uniform, Low: lo, High: hi, Delta: 1 + rng.Int63n(9)})
		}
		// Two build sizes: a narrow key range (a small build side, where the
		// index nested-loop join wins) and the small table's whole domain.
		lo, hi := drawRange(rng, rows/8, 0.002)
		w.joins = append(w.joins,
			pioqo.JoinQuery{Build: small, Probe: uniform, Low: lo, High: hi, Agg: pioqo.Count},
			pioqo.JoinQuery{Build: small, Probe: uniform, Low: 0, High: rows/8 - 1, Agg: pioqo.Count},
			pioqo.JoinQuery{Build: small, Probe: zipf, Low: lo, High: hi, Agg: pioqo.Max})
		lo, hi = drawRange(rng, rows, 0.25)
		w.groups = append(w.groups,
			pioqo.GroupByQuery{Table: uniform, Low: lo, High: hi, GroupWidth: rows / 128, Agg: pioqo.Sum},
			pioqo.GroupByQuery{Table: zipf, Low: 0, High: rows/20 - 1, GroupWidth: rows / 2048, Agg: pioqo.Max})
		// Three selectivities around each device's own break-even: on the hard
		// drive anything above half a percent is a full scan whose runtime
		// no range start can move.
		for i, sel := range []float64{0.002, 0.03, 0.5} {
			lo, hi := drawRange(rng, rows, sel)
			hddLo, hddHi := drawRange(rng, rows, []float64{0.0002, 0.001, 0.004}[i])
			w.adaptive = append(w.adaptive,
				adaptiveQuery{w.ssd, pioqo.Query{Table: uniform, Low: lo, High: hi}},
				// Zipf mass sits at the low keys, so its ranges start there.
				adaptiveQuery{w.ssd, pioqo.Query{Table: zipf, Low: 0, High: hi - lo}},
				adaptiveQuery{w.hdd, pioqo.Query{Table: hddTab, Low: hddLo, High: hddHi}})
		}
	}
	return w, nil
}

func (w *operatorMix) systems() []*pioqo.System { return []*pioqo.System{w.ssd, w.hdd} }

func (w *operatorMix) pass(tr *tracer) passResult {
	p := startPass(1)
	for _, q := range w.updates {
		sp := tr.start("Update", p.ops)
		res, err := w.ssd.Update(q, pioqo.Cold())
		tr.end(sp)
		p.op(res.Runtime, err, "update")
		p.lap()
		w.updated = append(w.updated, res.RowsUpdated)
	}
	for _, q := range w.joins {
		sp := tr.start("ExecuteJoin", p.ops)
		res, err := w.ssd.ExecuteJoin(q, pioqo.Cold())
		tr.end(sp)
		p.op(res.Runtime, err, "join")
		p.lap()
		w.joined = append(w.joined, res)
	}
	for _, q := range w.groups {
		sp := tr.start("ExecuteGroupBy", p.ops)
		res, err := w.ssd.ExecuteGroupBy(q, pioqo.Cold())
		tr.end(sp)
		p.op(res.Runtime, err, "group-by")
		p.lap()
		w.grouped = append(w.grouped, res)
	}
	for _, a := range w.adaptive {
		sp := tr.start("Execute", p.ops)
		res, err := a.sys.Execute(a.q, pioqo.Cold(), pioqo.WithAdaptive())
		tr.end(sp)
		p.op(res.Runtime, err, "adaptive Q")
		p.lap()
		w.adaptRes = append(w.adaptRes, res)
	}
	return p
}

// verify checks each operator against a differently planned run of itself
// or a serial full scan, runs the first round's adaptive queries at every
// static degree (the gap to the best one is adapt.gap_to_best_static_pct),
// and judges their ranges under both optimizers and the forced set.
func (w *operatorMix) verify(p passResult) verdict {
	var v verdict
	serial := pioqo.Plan{Method: pioqo.FullTableScan, Degree: 1}
	count := func(sys *pioqo.System, t *pioqo.Table, lo, hi int64) int64 {
		res, err := sys.ExecutePlan(pioqo.Query{Table: t, Low: lo, High: hi, Agg: pioqo.Count}, serial, pioqo.Cold())
		if err != nil {
			v.fail("serial count on %s: %v", t.Name(), err)
		}
		return res.Value
	}
	for i, q := range w.updates {
		v.checked++
		if w.updated[i] != count(w.ssd, q.Table, q.Low, q.High) {
			v.fail("update [%d,%d] touched %d rows, a serial count finds another number", q.Low, q.High, w.updated[i])
		}
	}
	for i, q := range w.joins {
		got := w.joined[i]
		v.checked++
		if got.BuildRows != count(w.ssd, q.Build, q.Low, q.High) {
			v.fail("join [%d,%d] built on %d rows, a serial count finds another number", q.Low, q.High, got.BuildRows)
		}
		again, err := w.ssd.ExecuteJoin(q, pioqo.Cold(), pioqo.WithPlanOptions(pioqo.PlanOptions{MaxDegree: 1}))
		if err != nil {
			v.fail("serial join [%d,%d]: %v", q.Low, q.High, err)
		} else if again.Value != got.Value || again.Found != got.Found || again.Pairs != got.Pairs {
			v.fail("join [%d,%d]: %s gives %d pairs, serial %s gives %d", q.Low, q.High, got.Method, got.Pairs, again.Method, again.Pairs)
		}
	}
	for i, q := range w.groups {
		v.checked++
		again, err := w.ssd.ExecuteGroupBy(q, pioqo.Cold(), pioqo.WithPlanOptions(pioqo.PlanOptions{MaxDegree: 1}))
		if err != nil {
			v.fail("serial group-by: %v", err)
		} else if fmt.Sprint(again.Groups) != fmt.Sprint(w.grouped[i].Groups) {
			v.fail("group-by [%d,%d] changes with the plan's degree", q.Low, q.High)
		}
		if w.grouped[i].Rows != count(w.ssd, q.Table, q.Low, q.High) {
			v.fail("group-by [%d,%d] consumed %d rows, a serial count finds another number", q.Low, q.High, w.grouped[i].Rows)
		}
	}

	var pairs []pair
	var adaptiveMs, bestMs float64
	for i, a := range w.adaptive[:len(w.adaptive)/w.rounds] {
		got := w.adaptRes[i]
		best := 0.0
		for _, degree := range []int{1, 2, 4, 8, 16, 32} {
			v.checked++
			res, err := a.sys.Execute(a.q, pioqo.Cold(), pioqo.WithStaticDegree(degree))
			if err != nil {
				v.fail("static degree %d: %v", degree, err)
				continue
			}
			if answerOf(res) != answerOf(got) {
				v.fail("adaptive [%d,%d] = %+v, static degree %d = %+v", a.q.Low, a.q.High, answerOf(got), degree, answerOf(res))
			}
			if best == 0 || ms(res.Runtime) < best {
				best = ms(res.Runtime)
			}
		}
		adaptiveMs += ms(got.Runtime)
		bestMs += best
		if a.q.High-a.q.Low > a.q.Table.Rows()/10 {
			continue // a forced index scan over half a table would outlast the pass
		}
		pr, err := runPair(nil, a.sys, a.q, i)
		if err != nil {
			v.fail("pair [%d,%d]: %v", a.q.Low, a.q.High, err)
			continue
		}
		pairs = append(pairs, pr)
	}
	if bestMs > 0 {
		v.gapToStatic = 100 * (adaptiveMs - bestMs) / bestMs
	}
	judge(&v, pairs, len(pairs))
	return v
}
