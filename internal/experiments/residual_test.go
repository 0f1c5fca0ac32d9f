package experiments

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"pioqo"
	"pioqo/internal/calibrate"
	"pioqo/internal/exec"
	"pioqo/internal/opt"
	"pioqo/internal/workload"
)

// The residual gate: for the cells where the optimizer's estimate should be
// a prediction and not merely a ranking — cold full scans, whose page count
// is exact — predicted ÷ measured runtime must stay inside residualLo…Hi.
// Both pricing rules feed it: the sequential band is priced in the shape and
// at the window the scan runs with, and worker start-up is CPU divided over
// the cores. Reverting either moves named cells out of the band.
const (
	residualLo = 0.95
	residualHi = 1.08
)

var residualDegrees = []int{1, 2, 4, 8, 16, 32}

// TestResidualColdFullScan checks every Table-1 configuration at every
// planned degree on DefaultScale's 12 288-page tables.
func TestResidualColdFullScan(t *testing.T) {
	t.Parallel()
	sc := DefaultScale()
	for _, cfg := range workload.Table1() {
		s := sc.system(cfg)
		// Calibrated as System.Calibrate does by default, §4.6's early stop
		// included: on the HDD the rows past the tripping one are fitted
		// between it and a measured deepest row, and these cells carry the
		// fit's band-1 column.
		ccfg := sc.calibConfig(s)
		ccfg.StopThreshold = 0.20
		model := calibrate.Run(s.Env, s.Dev, ccfg).Model
		// No index: the enumeration is the full scan alone.
		in := opt.Input{Table: s.Table, Pool: s.Pool, Lo: 0, Hi: s.Table.KeyDomain() / 2}
		for _, d := range residualDegrees {
			// The run is cold, so the plan is priced cold too: the estimate
			// credits whatever the previous run left in the pool.
			s.Pool.Flush()
			plans := opt.Enumerate(opt.Config{
				Model:     model,
				Costs:     s.Ctx.Costs,
				Cores:     s.CPU.Capacity(),
				PoolPages: int64(s.Pool.Capacity()),
				Degrees:   []int{d},
			}, in)
			plan := plans[0]
			if plan.Method != exec.FullScan || plan.Degree != d {
				t.Fatalf("%s: index-less enumeration at degree %d gave %v", cfg.Name, d, plan)
			}
			measured := s.Run(plan.Spec(in), true).Runtime.Micros()
			ratio := plan.TotalMicros / measured
			t.Logf("%-8s FTS degree %2d: predicted %9.0f us, measured %9.0f us, ratio %.3f",
				cfg.Name, d, plan.TotalMicros, measured, ratio)
			if ratio < residualLo || ratio > residualHi {
				t.Errorf("cell %s/FTS/degree=%d: predicted ÷ measured = %.3f, outside [%.2f, %.2f]",
					cfg.Name, d, ratio, residualLo, residualHi)
			}
		}
	}
}

// The band a cold serial index scan's estimate must stay in on the HDD, the
// band the same scans under eight workers must stay in, and how far apart
// the three page occupancies may lie. The three heaps are one
// size on one device and an index scan reads one page per row, so the model
// prices their rows alike; the device charges them alike only if the rows of
// consecutive keys are spread over the heap as calibration's random reads
// are. Measured: cells 0.977–1.084, configurations 1.002–1.028 (1.03×
// apart); the band sat at 0.88–1.02 while a heap's band was interpolated
// linearly and priced 7–9 % low, and interpolated in √band it is re-centred,
// its width kept. When consecutive keys lay a constant page stride apart the
// configurations read 0.97, 0.74 and 1.33 — 1.80× apart, each stride with its own rotational
// alignment — and no row of the model could have fixed two of them at once.
//
// The eight-worker cells read 1.15–1.37 while the HDD's rows past the
// tripping depth were §4.6's default of 1.05× depth 1, which prices every
// deeper read as a serial one; with those rows fitted to a measured depth-32
// row they read 0.94–1.09; calibrated by an active wait that keeps the
// depth it names, interpolated in √band and with a range's leaves read in
// one run, 0.925–1.018.
const (
	residualISLo     = 0.96
	residualISHi     = 1.10
	residualPISLo    = 0.90
	residualPISHi    = 1.10
	residualISSpread = 1.20
)

// TestResidualSerialIndexScanHDD checks cold index scans of 64 and 256 rows
// from three range starts on the three HDD configurations of Table 1: serial
// scans cell by cell against their band and configuration against
// configuration against the spread, and the same ranges under eight workers
// cell by cell against theirs. The HDD's calibration stops early, so the
// eight-worker cells are priced from its fitted rows.
func TestResidualSerialIndexScanHDD(t *testing.T) {
	t.Parallel()
	sc := DefaultScale()
	var ratios []float64 // one per configuration
	for _, cfg := range workload.Table1() {
		if cfg.Device != workload.HDD {
			continue
		}
		s := sc.system(cfg)
		ccfg := sc.calibConfig(s)
		ccfg.StopThreshold = 0.20 // System.Calibrate's default
		model := calibrate.Run(s.Env, s.Dev, ccfg).Model
		var predicted, measured float64
		for _, rows := range []int64{64, 256} {
			for _, start := range []int64{1, 3, 5} {
				lo := s.Table.KeyDomain() * start / 7
				in := opt.Input{Table: s.Table, Index: s.Index, Pool: s.Pool, Lo: lo, Hi: lo + rows - 1}
				for _, d := range []int{1, 8} {
					s.Pool.Flush() // priced cold, as it is run
					plans := opt.Enumerate(opt.Config{
						Model:     model,
						Costs:     s.Ctx.Costs,
						Cores:     s.CPU.Capacity(),
						PoolPages: int64(s.Pool.Capacity()),
						Degrees:   []int{d},
					}, in)
					i := slices.IndexFunc(plans, func(p opt.Plan) bool { return p.Method == exec.IndexScan })
					if i < 0 || plans[i].Degree != d {
						t.Fatalf("%s: no index scan of degree %d among %v", cfg.Name, d, plans)
					}
					plan := plans[i]
					took := s.Run(plan.Spec(in), true).Runtime.Micros()
					ratio := plan.TotalMicros / took
					t.Logf("%-8s IS degree %d, %3d rows from %8d: predicted %8.0f us, measured %8.0f us, ratio %.3f",
						cfg.Name, d, rows, lo, plan.TotalMicros, took, ratio)
					if d > 1 {
						if ratio < residualPISLo || ratio > residualPISHi {
							t.Errorf("cell %s/IS/degree=%d/rows=%d/from=%d: predicted ÷ measured = %.3f, outside [%.2f, %.2f]",
								cfg.Name, d, rows, lo, ratio, residualPISLo, residualPISHi)
						}
						continue
					}
					predicted += plan.TotalMicros
					measured += took
					if ratio < residualISLo || ratio > residualISHi {
						t.Errorf("cell %s/IS/degree=1/rows=%d/from=%d: predicted ÷ measured = %.3f, outside [%.2f, %.2f]",
							cfg.Name, rows, lo, ratio, residualISLo, residualISHi)
					}
				}
			}
		}
		ratio := predicted / measured
		t.Logf("%-8s IS degree 1, all six ranges: ratio %.3f", cfg.Name, ratio)
		ratios = append(ratios, ratio)
	}
	if lowest, highest := slices.Min(ratios), slices.Max(ratios); highest/lowest > residualISSpread {
		t.Errorf("serial index scans on the three HDD heaps: predicted ÷ measured from %.3f to %.3f, %.2f× apart (limit %.2f×)",
			lowest, highest, highest/lowest, residualISSpread)
	}
}

// shardSystem builds and calibrates an SSD cluster over one hash-partitioned
// Zipf table, hedging at the default delay.
func (sc Scale) shardSystem(t *testing.T, shards int, zipf float64) (*pioqo.System, *pioqo.Table) {
	t.Helper()
	sys := pioqo.New(pioqo.Config{
		Device:    pioqo.SSD,
		PoolPages: sc.PoolPages,
		Cores:     sc.Cores,
		Shards:    shards,
	})
	tab, err := sys.CreateTable("shard", sc.Pages*33, 33, pioqo.WithZipfData(zipf))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Calibrate(pioqo.CalibrationOptions{MaxReads: sc.CalibReads}); err != nil {
		t.Fatal(err)
	}
	return sys, tab
}

// TestResidualShardedGather checks the scatter-gather estimate — the most
// expensive shard's plan plus the merge — against the measured gather of a
// full-range query on an 8-shard hash-partitioned Zipf table, where the
// hot shard sets the makespan. The hedgers are armed as in every gather and
// must stay idle: no read of a healthy device outlasts the hedge delay.
// Their timers still run out after the last read lands, but Runtime ends
// when the gather's process exits and the drain behind it is off the clock,
// so the cell measures the scan and the merge the estimate prices.
func TestResidualShardedGather(t *testing.T) {
	t.Parallel()
	sc := DefaultScale()
	sys, tab := sc.shardSystem(t, 8, 1.3)
	q := pioqo.Query{Table: tab, Low: 0, High: sc.Pages*33 - 1}
	// Every arm is planned before anything runs: a plan prices the pool as it
	// finds it, and the runs are cold.
	maxDegrees := []int{1, 8, 32}
	plans := make([]pioqo.Plan, len(maxDegrees))
	for i, maxDegree := range maxDegrees {
		var err error
		if plans[i], err = sys.Plan(q, pioqo.PlanOptions{MaxDegree: maxDegree}); err != nil {
			t.Fatal(err)
		}
	}
	for i, plan := range plans {
		res, err := sys.Run(context.Background(), q, pioqo.WithPlan(plan), pioqo.Cold())
		if err != nil {
			t.Fatal(err)
		}
		if hs := sys.HedgeStats(); hs.Issued != 0 {
			t.Fatalf("healthy gather issued %d hedges; the cell would measure speculation", hs.Issued)
		}
		ratio := float64(plan.EstimatedCost) / float64(res.Runtime)
		cell := fmt.Sprintf("hash8-zipf1.3/maxdegree=%d/%v", maxDegrees[i], plan)
		t.Logf("%s: measured %v, ratio %.3f", cell, res.Runtime, ratio)
		if ratio < residualLo || ratio > residualHi {
			t.Errorf("cell %s: predicted ÷ measured = %.3f, outside [%.2f, %.2f]",
				cell, ratio, residualLo, residualHi)
		}
	}
}
