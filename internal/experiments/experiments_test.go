package experiments

import (
	"math"
	"testing"

	"pioqo/internal/workload"
)

// The experiment tests assert the paper's qualitative findings — who wins,
// where crossings fall, rough factors — at QuickScale. cmd/pioqo-bench runs
// the same experiments at DefaultScale.

func quick() Scale { return QuickScale() }

func cfgFor(rpp int, dev workload.DeviceKind) workload.Config {
	for _, c := range workload.Table1() {
		if c.RowsPerPage == rpp && c.Device == dev {
			return c
		}
	}
	panic("no such config")
}

func TestFig1Shape(t *testing.T) {
	t.Parallel()
	rows := quick().Fig1()
	byDev := map[string][]Fig1Row{}
	for _, r := range rows {
		byDev[r.Device] = append(byDev[r.Device], r)
	}
	ssd, hdd := byDev["SSD"], byDev["HDD"]
	if len(ssd) != 6 || len(hdd) != 6 {
		t.Fatalf("got %d SSD rows and %d HDD rows, want 6 each", len(ssd), len(hdd))
	}
	// SSD: monotone growth, QD32 near half of sequential (paper: 51.7%).
	for i := 1; i < len(ssd); i++ {
		if ssd[i].RandomMBps <= ssd[i-1].RandomMBps {
			t.Errorf("SSD random throughput not monotone at QD %d", ssd[i].QueueDepth)
		}
	}
	if got := ssd[5].RatioPercent; got < 30 || got > 75 {
		t.Errorf("SSD QD32 ratio = %.1f%%, paper reports ~51.7%%", got)
	}
	// HDD: QD32 random stays a tiny fraction of sequential (paper: ~1.3%).
	if got := hdd[5].RatioPercent; got > 5 {
		t.Errorf("HDD QD32 ratio = %.1f%%, paper reports ~1.3%%", got)
	}
	if hdd[5].RandomMBps <= hdd[0].RandomMBps {
		t.Error("HDD queue ordering produced no gain from QD1 to QD32")
	}
}

func TestFig4E1SSDShape(t *testing.T) {
	t.Parallel()
	rows := quick().Fig4(cfgFor(1, workload.SSD), []int{32})
	curve := map[string]map[float64]float64{} // method -> sel -> runtime
	var sels []float64
	for _, r := range rows {
		if curve[r.Method] == nil {
			curve[r.Method] = map[float64]float64{}
		}
		curve[r.Method][r.Selectivity] = float64(r.Runtime)
		if r.Method == "IS" {
			sels = append(sels, r.Selectivity)
		}
	}
	// PIS32 dominates IS at every selectivity, by a large factor somewhere.
	bestGain := 0.0
	for _, s := range sels {
		gain := curve["IS"][s] / curve["PIS32"][s]
		if gain < 1 {
			t.Errorf("sel %.4f: PIS32 slower than IS (gain %.2f)", s, gain)
		}
		bestGain = math.Max(bestGain, gain)
	}
	if bestGain < 6 {
		t.Errorf("max PIS32 gain over IS = %.1fx, paper reports avg 16.6x", bestGain)
	}
	// The IS/FTS crossing lies inside the sweep: IS wins at the low end,
	// FTS wins at the high end.
	first, last := sels[0], sels[len(sels)-1]
	if curve["IS"][first] >= curve["FTS"][first] {
		t.Errorf("at sel %.4f IS (%.0f) not below FTS (%.0f)",
			first, curve["IS"][first], curve["FTS"][first])
	}
	if curve["IS"][last] <= curve["FTS"][last] {
		t.Errorf("at sel %.4f IS (%.0f) not above FTS (%.0f)",
			last, curve["IS"][last], curve["FTS"][last])
	}
}

func TestFig4HDDParallelGainIsModest(t *testing.T) {
	t.Parallel()
	rows := quick().Fig4(cfgFor(1, workload.HDD), []int{32})
	var isSum, pisSum float64
	n := 0
	for _, r := range rows {
		switch r.Method {
		case "IS":
			isSum += float64(r.Runtime)
			n++
		case "PIS32":
			pisSum += float64(r.Runtime)
		}
	}
	gain := isSum / pisSum
	// Paper: PIS32 averages ~2.37x faster than IS on HDD — a modest gain,
	// and 2.4x here at quick scale, where the drive orders its queue by
	// access time; the requirement is that parallel I/O never helps HDD by
	// an SSD's order of magnitude and never hurts.
	if gain < 0.95 || gain > 6 {
		t.Errorf("HDD avg PIS32 gain = %.2fx, paper reports ~2.4x (modest)", gain)
	}
}

func TestTable2BreakEvenShifts(t *testing.T) {
	t.Parallel()
	rows := quick().Table2()
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3", len(rows))
	}
	// breakEven bisects [1e-7, 0.9] geometrically eleven times, so a shift is
	// a whole number of grid steps of this factor; each HDD bound below
	// leaves one step of slack.
	step := math.Pow(0.9/1e-7, 1.0/(1<<11))
	hddFloor := map[int]float64{
		1:   2.23 / step, // ×2.24 at quick scale, the paper's ×2.5
		33:  1.82 / step, // ×1.83, the paper's ×2.5
		500: 1.09 / step, // ×1.10, the paper's +11 %
	}
	for _, r := range rows {
		// Parallelism shifts the break-even right on both devices...
		if r.PSSD <= r.NPSSD {
			t.Errorf("rpp=%d: SSD break-even did not shift right (%.5f -> %.5f)",
				r.RowsPerPage, r.NPSSD, r.PSSD)
		}
		// ...while the HDD crossing moves modestly (paper: 1.1x-2.5x right),
		// on each row no further from the paper than it does today.
		if shift := r.PHDD / r.NPHDD; shift < hddFloor[r.RowsPerPage] || shift > 8 {
			t.Errorf("rpp=%d: HDD parallel break-even moved %.3fx (%.6f -> %.6f), want within [%.3f, 8]",
				r.RowsPerPage, shift, r.NPHDD, r.PHDD, hddFloor[r.RowsPerPage])
		}
		// ...and the shift is much larger on SSD (the paper's key message).
		ssdShift := r.PSSD / r.NPSSD
		hddShift := r.PHDD / r.NPHDD
		if ssdShift < 1.5*hddShift {
			t.Errorf("rpp=%d: SSD shift %.1fx not clearly above HDD shift %.1fx",
				r.RowsPerPage, ssdShift, hddShift)
		}
		// SSD break-evens sit far right of HDD ones at equal rpp.
		if r.NPSSD <= r.NPHDD {
			t.Errorf("rpp=%d: SSD non-parallel break-even %.5f not right of HDD %.5f",
				r.RowsPerPage, r.NPSSD, r.NPHDD)
		}
	}
	// Break-evens shrink as rows-per-page grows (reading down Table 2).
	for i := 1; i < len(rows); i++ {
		if rows[i].NPSSD >= rows[i-1].NPSSD || rows[i].NPHDD >= rows[i-1].NPHDD {
			t.Errorf("break-evens did not shrink from rpp=%d to rpp=%d",
				rows[i-1].RowsPerPage, rows[i].RowsPerPage)
		}
	}
}

func TestTable3ThroughputRatios(t *testing.T) {
	t.Parallel()
	rows := quick().Table3()
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3", len(rows))
	}
	// Paper Table 3 shape: the SSD-over-HDD throughput ratio declines as
	// rows per page grow (PFTS32: 8.45x -> 5.46x -> 2.25x; FTS: 2.72x ->
	// 1.91x -> 1.13x), and PFTS exploits the SSD better than FTS does.
	for i, r := range rows {
		if r.PFTS32Ratio <= r.FTSRatio {
			t.Errorf("rpp=%d: PFTS32 SSD/HDD ratio %.2fx not above FTS ratio %.2fx",
				r.RowsPerPage, r.PFTS32Ratio, r.FTSRatio)
		}
		if i > 0 {
			prev := rows[i-1]
			if r.PFTS32Ratio >= prev.PFTS32Ratio {
				t.Errorf("PFTS32 SSD/HDD ratio did not decline: rpp=%d %.2fx vs rpp=%d %.2fx",
					prev.RowsPerPage, prev.PFTS32Ratio, r.RowsPerPage, r.PFTS32Ratio)
			}
		}
	}
	// HDD full scans run near the ~110 MB/s media rate once CPU allows:
	// with 33 rows/page one worker already saturates the spindle.
	r33 := rows[1]
	if r33.FTSHDD < 80 || r33.PFTS32HDD < 80 {
		t.Errorf("E33-HDD throughput FTS=%.0f PFTS32=%.0f, want near media rate",
			r33.FTSHDD, r33.PFTS32HDD)
	}
	// On E500 the HDD needs a second worker: PFTS32 saturates the media
	// rate while FTS is CPU-bound at roughly half of it (paper: 110 vs 51).
	r500 := rows[2]
	if r500.PFTS32HDD < 1.5*r500.FTSHDD {
		t.Errorf("E500-HDD PFTS32 %.0f MB/s not well above CPU-bound FTS %.0f MB/s",
			r500.PFTS32HDD, r500.FTSHDD)
	}
}

func TestFig5PrefetchingShape(t *testing.T) {
	t.Parallel()
	rows := quick().Fig5()
	rt := map[[2]int]float64{} // {degree, prefetch} -> runtime
	for _, r := range rows {
		rt[[2]int{r.Degree, r.Prefetch}] = float64(r.Runtime)
	}
	// Prefetching sharply improves the single-worker scan.
	if gain := rt[[2]int{1, 0}] / rt[[2]int{1, 32}]; gain < 4 {
		t.Errorf("1 worker: prefetch-32 gain = %.1fx, want >= 4x", gain)
	}
	// One worker prefetching n does not match n workers (paper: due to
	// imperfect overlap); n workers are at least as good.
	if rt[[2]int{8, 0}] > rt[[2]int{1, 8}] {
		t.Errorf("8 workers (%v) slower than 1 worker with prefetch 8 (%v)",
			rt[[2]int{8, 0}], rt[[2]int{1, 8}])
	}
	// Few workers with deep prefetch rival many workers without (paper: 4
	// workers x 32 prefetch beat 32 workers x 0 by 35%).
	if rt[[2]int{4, 32}] > 1.25*rt[[2]int{32, 0}] {
		t.Errorf("4 workers x 32 prefetch (%v) much slower than 32 workers (%v)",
			rt[[2]int{4, 32}], rt[[2]int{32, 0}])
	}
}

func TestFig8OptimizerSpeedup(t *testing.T) {
	t.Parallel()
	rows := quick().Fig8(cfgFor(33, workload.SSD))
	maxSpeedup, minSpeedup := 0.0, math.Inf(1)
	sawParallelNew := false
	for _, r := range rows {
		maxSpeedup = math.Max(maxSpeedup, r.Speedup)
		minSpeedup = math.Min(minSpeedup, r.Speedup)
		if r.NewPlan != r.OldPlan {
			sawParallelNew = true
		}
	}
	if maxSpeedup < 4 {
		t.Errorf("max QDTT speedup = %.1fx, paper reports up to 16.9x on E33-SSD", maxSpeedup)
	}
	if minSpeedup < 0.7 {
		t.Errorf("min speedup = %.2fx; QDTT plans should never be much worse", minSpeedup)
	}
	if !sawParallelNew {
		t.Error("new optimizer never chose a different plan than the old one")
	}
}

func TestFig9GWAndAWAgreeOnSSD(t *testing.T) {
	t.Parallel()
	rows := quick().Fig10()
	for _, r := range rows {
		if d := math.Abs(r.GWMinusAW); d > 15 {
			t.Errorf("band %d depth %d: |GW-AW| = %.1fus, want small on SSD",
				r.Band, r.Depth, d)
		}
	}
}

func TestFig11AWBeatsGWOnRAID(t *testing.T) {
	t.Parallel()
	rows := quick().Fig11()
	sawBigGap := false
	for _, r := range rows {
		if r.Depth >= 8 && r.GWMinusAW > 0.2*r.AWMicros {
			sawBigGap = true
		}
	}
	if !sawBigGap {
		t.Error("no depth>=8 point where GW exceeds AW by >20% on RAID")
	}
}

func TestFig12InterpolationAccuracy(t *testing.T) {
	t.Parallel()
	rows := quick().Fig12()
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	bad := 0
	for _, r := range rows {
		if math.Abs(r.ErrPercent) > 20 {
			bad++
		}
	}
	// The paper calls the exponential grid "fairly accurate"; allow a few
	// noisy points but not systematic failure.
	if frac := float64(bad) / float64(len(rows)); frac > 0.1 {
		t.Errorf("%.0f%% of interpolated points off by >20%%", frac*100)
	}
}

func TestEarlyStopComparison(t *testing.T) {
	t.Parallel()
	rows := quick().EarlyStop()
	byKey := map[[2]interface{}]EarlyStopRow{}
	for _, r := range rows {
		byKey[[2]interface{}{r.Device, r.Threshold}] = r
	}
	hddFull := byKey[[2]interface{}{"HDD", 0.0}]
	hddStop := byKey[[2]interface{}{"HDD", 0.20}]
	if !hddStop.StoppedEarly {
		t.Error("HDD calibration with T=20% did not stop early")
	}
	if hddStop.SimTime >= hddFull.SimTime {
		t.Errorf("HDD early stop saved no time (%v vs %v)", hddStop.SimTime, hddFull.SimTime)
	}
	ssdStop := byKey[[2]interface{}{"SSD", 0.20}]
	if ssdStop.StoppedEarly {
		t.Error("SSD calibration stopped early despite strong parallel gains")
	}
}

func TestSelGrid(t *testing.T) {
	g := selGrid(0.001, 0.1, 5)
	if len(g) != 5 {
		t.Fatalf("%d points, want 5", len(g))
	}
	if math.Abs(g[0]-0.001) > 1e-12 || math.Abs(g[4]-0.1) > 1e-9 {
		t.Errorf("endpoints %v, want [0.001 .. 0.1]", g)
	}
	for i := 1; i < len(g); i++ {
		ratio := g[i] / g[i-1]
		if math.Abs(ratio-g[1]/g[0]) > 1e-9 {
			t.Error("grid not geometric")
		}
	}
}
