package main

import (
	"fmt"
	"math/rand"

	"pioqo"
)

// servingMix is workload serving_mix: one brokered batch on a hard drive —
// 95 % point lookups on a hot 1 % key stripe whose leaves fit the pool, 5 %
// full scans that ride the shared circulating scans of three wide-row
// tables.
type servingMix struct {
	sys     *pioqo.System
	queries []pioqo.Query
	points  int            // the first points queries are lookups, the rest scans
	batch   []pioqo.Result // what the pass's batch returned, for verify
}

func setupServingMix(seed int64, sz sizes, tr *tracer) (instance, error) {
	const rpp = 4 // wide rows: little CPU per page, so scans are I/O-shaped
	rng := rand.New(rand.NewSource(seed))
	w := &servingMix{}
	var tables []*pioqo.Table
	rows := sz.ServingPages * rpp
	sys, err := newSystem(tr, pioqo.Config{Device: pioqo.HDD, PoolPages: sz.PoolPages, Seed: seed},
		sz, func(sys *pioqo.System) error {
			for i := 0; i < 3; i++ {
				tab, err := createTable(tr, sys, fmt.Sprintf("hot%d", i), rows, rpp,
					pioqo.WithSyntheticData(), pioqo.WithTableSeed(seed+int64(i)))
				if err != nil {
					return err
				}
				tables = append(tables, tab)
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	w.sys = sys

	// Points first, scans last: by the time a scan plans, the table's whole
	// in-flight population has registered interest, so it prices the attach
	// path against the real rider count.
	scans := sz.ServingQueries / 20
	w.points = sz.ServingQueries - scans
	hot := rows / 100
	for i := 0; i < w.points; i++ {
		key := rng.Int63n(hot)
		w.queries = append(w.queries, pioqo.Query{Table: tables[i%3], Low: key, High: key})
	}
	for i := 0; i < scans; i++ {
		w.queries = append(w.queries, pioqo.Query{Table: tables[i%3], Low: 0, High: rows - 1})
	}
	return w, nil
}

func (w *servingMix) systems() []*pioqo.System { return []*pioqo.System{w.sys} }

func (w *servingMix) pass(tr *tracer) passResult {
	p := startPass(15)
	p.ops = len(w.queries)
	sp := tr.start("ExecuteConcurrent", 0)
	res, err := w.sys.ExecuteConcurrent(w.queries, pioqo.Cold())
	tr.end(sp)
	p.lap()
	if err != nil {
		p.failed = p.ops
		p.notes = append(p.notes, err.Error())
		return p
	}
	w.batch = res.Results
	p.makespanMs = ms(res.Elapsed)
	var wait, total float64
	scanAnswer := map[*pioqo.Table]answer{}
	for i, r := range res.Results {
		q := w.queries[i]
		if r.Rows != q.High-q.Low+1 {
			p.fail("[%d,%d] matched %d rows of a permutation", q.Low, q.High, r.Rows)
		}
		if i >= w.points { // every scan of one table must return one answer
			if prev, seen := scanAnswer[q.Table]; seen && prev != answerOf(r) {
				p.fail("scans of %s disagree: %+v vs %+v", q.Table.Name(), prev, answerOf(r))
			}
			scanAnswer[q.Table] = answerOf(r)
		}
		l := ms(res.Admissions[i].Wait + r.Runtime)
		p.lat = append(p.lat, l)
		wait += ms(res.Admissions[i].Wait)
		total += l
	}
	p.counts = map[string]float64{"broker.admission_wait_share": ratio(wait, total)}
	return p
}

// verify re-runs a sample privately, outside any batch — each table's scan
// and a few lookups, under both optimizers and every forced candidate — so
// a shared rider must agree with a private serial scan.
func (w *servingMix) verify(p passResult) verdict {
	var v verdict
	var pairs []pair
	sample := []int{0, 1, 2, 3, 4, 5, w.points, w.points + 1, w.points + 2}
	for _, i := range sample {
		q := w.queries[i]
		pr, err := runPair(nil, w.sys, q, i)
		if err != nil {
			v.fail("private [%d,%d]: %v", q.Low, q.High, err)
			continue
		}
		pr.exactRows = true
		pairs = append(pairs, pr)
		if i < len(w.batch) && answerOf(w.batch[i]) != answerOf(pr.chosen) {
			v.fail("[%d,%d] in the batch = %+v, alone = %+v", q.Low, q.High, answerOf(w.batch[i]), answerOf(pr.chosen))
		}
	}
	judge(&v, pairs, len(pairs))
	return v
}
