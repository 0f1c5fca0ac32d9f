package main

import (
	"fmt"
	"math"
	"math/rand"

	"pioqo"
)

// table1 is the paper's Table 1 — three row widths on two devices — with
// the selectivity range of each Fig. 4 panel, chosen there "to contain all
// break-even points for that specific experiment".
var table1 = []struct {
	name     string
	rpp      int
	device   pioqo.DeviceKind
	selLo    float64
	selHi    float64
	paperMax float64 // the paper's maximum Fig. 8 speed-up; 0 where it reports none
}{
	{"E1-HDD", 1, pioqo.HDD, 0.0005, 0.03, 0},
	{"E1-SSD", 1, pioqo.SSD, 0.01, 0.7, 19.7},
	{"E33-HDD", 33, pioqo.HDD, 0.00005, 0.003, 0},
	{"E33-SSD", 33, pioqo.SSD, 0.0005, 0.1, 16.9},
	{"E500-HDD", 500, pioqo.HDD, 0.000005, 0.0002, 0},
	{"E500-SSD", 500, pioqo.SSD, 0.00003, 0.01, 13.7},
}

// paperSweep is workload paper_q_sweep: the paper's Q on all six Table-1
// configurations, each selectivity executed cold under the QDTT plan and
// under the depth-oblivious plan.
type paperSweep struct {
	sys     []*pioqo.System
	queries [][]pioqo.Query // per config: SweepStarts runs of SweepSels selectivities
	sels    int
}

func setupPaperSweep(seed int64, sz sizes, tr *tracer) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &paperSweep{sels: sz.SweepSels}
	for i, cfg := range table1 {
		rows := sz.SweepPages * int64(cfg.rpp)
		var tab *pioqo.Table
		sys, err := newSystem(tr, pioqo.Config{Device: cfg.device, PoolPages: sz.PoolPages, Seed: seed},
			sz, func(sys *pioqo.System) (err error) {
				tab, err = createTable(tr, sys, cfg.name, rows, cfg.rpp,
					pioqo.WithSyntheticData(), pioqo.WithTableSeed(seed+int64(i)))
				return err
			})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.name, err)
		}
		var qs []pioqo.Query
		for start := 0; start < sz.SweepStarts; start++ {
			for _, sel := range geometric(cfg.selLo, cfg.selHi, sz.SweepSels) {
				lo, hi := drawRange(rng, rows, sel)
				qs = append(qs, pioqo.Query{Table: tab, Low: lo, High: hi})
			}
		}
		w.sys = append(w.sys, sys)
		w.queries = append(w.queries, qs)
	}
	return w, nil
}

func (w *paperSweep) systems() []*pioqo.System { return w.sys }

func (w *paperSweep) pass(tr *tracer) passResult {
	p := startPass(1)
	for i, sys := range w.sys {
		for _, q := range w.queries[i] {
			pr, err := runPair(tr, sys, q, p.ops)
			pr.exactRows = true
			p.op(pr.chosen.Runtime, err, table1[i].name+" QDTT")
			p.op(pr.dtt.Runtime, err, table1[i].name+" DTT")
			p.lap()
			if err == nil {
				p.pairs = append(p.pairs, pr)
			}
		}
	}
	return p
}

// verify takes the headline speed-up over the SSD configurations only, as
// the paper's Fig. 8 does, and runs the forced candidate set — answer
// oracle and regret baseline at once — over each configuration's first run
// of selectivities.
func (w *paperSweep) verify(p passResult) verdict {
	var v verdict
	var chosen, dtt float64
	peak := make([]float64, len(table1))
	for _, pr := range p.pairs {
		if pr.sys.DeviceName() != "ssd" {
			continue
		}
		chosen += ms(pr.chosen.Runtime)
		dtt += ms(pr.dtt.Runtime)
		for i, sys := range w.sys {
			if sys == pr.sys {
				peak[i] = math.Max(peak[i], float64(pr.dtt.Runtime)/float64(pr.chosen.Runtime))
			}
		}
	}
	if chosen > 0 {
		v.speedupVsDTT, v.speedupBase = dtt/chosen, chosen
	}
	for i, cfg := range table1 {
		if cfg.paperMax > 0 {
			v.info = append(v.info, fmt.Sprintf("%s: largest speed-up over the DTT plan ×%.2f (the paper's Fig. 8 maximum: ×%.1f; this model has no hardware reference)",
				cfg.name, peak[i], cfg.paperMax))
		}
	}
	var first []pair
	for i, pr := range p.pairs {
		if i%len(w.queries[0]) < w.sels {
			first = append(first, pr)
		}
	}
	judge(&v, first, len(first))
	return v
}
