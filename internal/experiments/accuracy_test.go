package experiments

import (
	"testing"

	"pioqo/internal/workload"
)

func TestAccuracyQDTTEstimatesTrackMeasurements(t *testing.T) {
	t.Parallel()
	rows := quick().Accuracy(cfgFor(33, workload.SSD))
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	// A cost model never matches measured runtimes exactly; what makes it
	// usable is staying within a modest constant band. Require the bulk of
	// estimates within 4x either way and none beyond 10x.
	outside4x, outside10x := 0, 0
	for _, r := range rows {
		if r.Ratio > 4 || r.Ratio < 0.25 {
			outside4x++
		}
		if r.Ratio > 10 || r.Ratio < 0.1 {
			outside10x++
			t.Logf("gross misestimate: %+v", r)
		}
	}
	if frac := float64(outside4x) / float64(len(rows)); frac > 0.3 {
		t.Errorf("%.0f%% of estimates outside 4x band", frac*100)
	}
	if outside10x > 0 {
		t.Errorf("%d estimates off by more than 10x", outside10x)
	}
}

func TestOptimalityQDTTBeatsDTT(t *testing.T) {
	t.Parallel()
	rows := quick().Optimality(cfgFor(33, workload.SSD))
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	oldMean := meanRegret(rows, true)
	newMean := meanRegret(rows, false)
	// The paper's headline: QDTT choices sit near the optimum while DTT
	// choices are off by large factors at low selectivities.
	if newMean > 2 {
		t.Errorf("mean QDTT regret = %.2fx, want near-optimal (<= 2x)", newMean)
	}
	if oldMean < 2*newMean {
		t.Errorf("mean DTT regret %.2fx not clearly worse than QDTT %.2fx",
			oldMean, newMean)
	}
	sawBigOldRegret := false
	for _, r := range rows {
		if r.NewRegret > 4 {
			t.Errorf("sel %.4f: QDTT regret %.1fx (chose %s, best %s)",
				r.Selectivity, r.NewRegret, r.NewPlan, r.BestPlan)
		}
		if r.OldRegret > 5 {
			sawBigOldRegret = true
		}
	}
	if !sawBigOldRegret {
		t.Error("DTT optimizer never suffered a >5x regret; expected large misses at low selectivity")
	}
}
