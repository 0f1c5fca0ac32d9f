package experiments

import (
	"fmt"
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
		// included: on the HDD that defaults every row past depth 1 to 1.05×
		// the first, which these cells then carry.
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
		res, err := sys.ExecutePlan(q, plan, pioqo.Cold())
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
