package main

import (
	"fmt"
	"math/rand"
	"time"

	"pioqo"
)

// clusterGather is workload cluster_gather: scatter-gather over 8 SSD
// shards of Zipf-skewed data, one hash-partitioned and one range-balanced
// table, sequential cold queries — first healthy, then under injected
// stragglers and read errors that hedging and retry must absorb.
type clusterGather struct {
	seed    int64
	sz      sizes
	sys     *pioqo.System
	tables  []*pioqo.Table
	scalars []pioqo.Query
	groups  []pioqo.GroupByQuery

	answers []answer           // per scalar query, healthy then faulted
	grouped [][]pioqo.GroupRow // per group-by, healthy then faulted
}

const (
	clusterShards = 8
	clusterZipf   = 1.3
)

var retry = pioqo.WithRetry(pioqo.RetryPolicy{MaxAttempts: 6})

// clusterTables builds the workload's two tables on sys: the 8-shard
// cluster, or the one-node twin the oracle answers on.
func clusterTables(tr *tracer, seed int64, sz sizes, shards int) (*pioqo.System, []*pioqo.Table, error) {
	var tables []*pioqo.Table
	sys, err := newSystem(tr, pioqo.Config{Device: pioqo.SSD, PoolPages: sz.PoolPages, Seed: seed, Shards: shards},
		sz, func(sys *pioqo.System) error {
			for i, kind := range []pioqo.PartitionKind{pioqo.PartitionHash, pioqo.PartitionRangeBalanced} {
				tab, err := createTable(tr, sys, kind.String(), sz.ClusterRows, 33, pioqo.WithZipfData(clusterZipf),
					pioqo.WithTableSeed(seed+int64(i)), pioqo.WithPartition(kind))
				if err != nil {
					return err
				}
				tables = append(tables, tab)
			}
			return nil
		})
	return sys, tables, err
}

func setupClusterGather(seed int64, sz sizes, tr *tracer) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &clusterGather{seed: seed, sz: sz}
	rows := sz.ClusterRows
	var err error
	if w.sys, w.tables, err = clusterTables(tr, seed, sz, clusterShards); err != nil {
		return nil, err
	}

	// The shard experiment's mix: low-key ranges are where the Zipf mass
	// lives, so narrow key ranges are still heavy; the mid-range 1 % lets a
	// range-partitioned table prune shards. The seed nudges each start.
	for i := 0; i < sz.ClusterRounds*len(w.tables); i++ {
		tab := w.tables[i%len(w.tables)]
		nudge := rng.Int63n(rows/1000 + 1)
		ranges := [][2]int64{
			{nudge, rows - 1},
			{nudge, rows/4 - 1},
			{nudge, rows/20 - 1},
			{rows/2 + nudge, rows/2 + nudge + rows/100},
		}
		for _, r := range ranges {
			for _, agg := range []pioqo.Aggregate{pioqo.Max, pioqo.Count, pioqo.Sum} {
				w.scalars = append(w.scalars, pioqo.Query{Table: tab, Low: r[0], High: r[1], Agg: agg})
			}
		}
		w.groups = append(w.groups,
			pioqo.GroupByQuery{Table: tab, Low: nudge, High: rows/4 - 1, GroupWidth: rows / 64, Agg: pioqo.Sum})
	}
	return w, nil
}

func (w *clusterGather) systems() []*pioqo.System { return []*pioqo.System{w.sys} }

func (w *clusterGather) pass(tr *tracer) passResult {
	p := startPass(1)
	scalars := func(phase string) {
		for _, q := range w.scalars {
			sp := tr.start("Execute", p.ops)
			res, err := w.sys.Execute(q, pioqo.Cold(), retry)
			tr.end(sp)
			p.op(res.Runtime, err, fmt.Sprintf("%s %v[%d,%d]", phase, q.Agg, q.Low, q.High))
			p.lap()
			w.answers = append(w.answers, answerOf(res))
		}
	}
	groupBys := func(phase string) {
		for _, q := range w.groups {
			sp := tr.start("ExecuteGroupBy", p.ops)
			res, err := w.sys.ExecuteGroupBy(q, pioqo.Cold())
			tr.end(sp)
			p.op(res.Runtime, err, phase+" group-by")
			p.lap()
			w.grouped = append(w.grouped, res.Groups)
		}
	}
	inject := func(window pioqo.FaultWindow) {
		w.sys.InjectFaults(pioqo.FaultSchedule{Seed: w.seed, Windows: []pioqo.FaultWindow{window}})
	}
	scalars("healthy")
	groupBys("healthy")

	// 5 % of reads straggle by 20 ms and 0.5 % fail outright. The gather
	// group-by carries no fault control — a read error there panics — so it
	// runs under the stragglers alone.
	faults := pioqo.FaultWindow{StragglerRate: 0.05, StragglerLatency: 20 * time.Millisecond, ErrorRate: 0.005}
	inject(faults)
	scalars("faulted")
	faults.ErrorRate = 0
	inject(faults)
	groupBys("straggling")
	w.sys.ClearFaults()
	return p
}

// verify answers every query on a one-node twin with a serial full scan:
// the sharded answers, healthy and faulted, must match it.
func (w *clusterGather) verify(p passResult) verdict {
	var v verdict
	twin, twins, err := clusterTables(nil, w.seed, w.sz, 1)
	if err != nil {
		v.fail("one-node twin: %v", err)
		return v
	}
	twinOf := func(t *pioqo.Table) *pioqo.Table {
		for i, tab := range w.tables {
			if tab == t {
				return twins[i]
			}
		}
		return nil
	}
	serial := pioqo.Plan{Method: pioqo.FullTableScan, Degree: 1}
	for i, q := range w.scalars {
		q.Table = twinOf(q.Table)
		ref, err := twin.ExecutePlan(q, serial, pioqo.Cold())
		// The pass answered every scalar query twice: healthy, then faulted.
		for _, got := range []answer{w.answers[i], w.answers[len(w.scalars)+i]} {
			v.checked++
			if err != nil {
				v.fail("twin %v[%d,%d]: %v", q.Agg, q.Low, q.High, err)
			} else if got != answerOf(ref) {
				v.fail("%v[%d,%d] on %s: 8 shards = %+v, one node = %+v", q.Agg, q.Low, q.High, q.Table.Name(), got, answerOf(ref))
			}
		}
	}
	for i, q := range w.groups {
		q.Table = twinOf(q.Table)
		ref, err := twin.ExecuteGroupBy(q, pioqo.Cold())
		for _, got := range [][]pioqo.GroupRow{w.grouped[i], w.grouped[len(w.groups)+i]} {
			v.checked++
			if err != nil {
				v.fail("twin group-by: %v", err)
			} else if fmt.Sprint(got) != fmt.Sprint(ref.Groups) {
				v.fail("group-by on %s: 8 shards and one node disagree", q.Table.Name())
			}
		}
	}
	// The narrow MAX queries, on the cluster itself: all of them under both
	// optimizers, the first round's under every forced candidate too. An
	// index scan forced over most of a table would outlast the whole pass.
	var pairs []pair
	for i, q := range w.scalars {
		if q.Agg != pioqo.Max || q.High-q.Low > w.sz.ClusterRows/20 {
			continue
		}
		pr, err := runPair(nil, w.sys, q, i)
		if err != nil {
			v.fail("pair [%d,%d]: %v", q.Low, q.High, err)
			continue
		}
		pairs = append(pairs, pr)
	}
	judge(&v, pairs, len(pairs)/w.sz.ClusterRounds)
	return v
}
