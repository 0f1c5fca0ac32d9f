// Benchmarks that regenerate every table and figure of the paper's
// evaluation, one testing.B entry each, at a reduced scale (each iteration
// runs the complete experiment in virtual time). Useful custom metrics are
// attached where the paper reports a headline number: speedups, break-even
// shifts, throughput ratios. Run cmd/pioqo-bench for full-scale TSV output.
package pioqo_test

import (
	"math"
	"math/rand"
	"testing"

	"pioqo"
	"pioqo/internal/experiments"
	"pioqo/internal/workload"
)

// benchScale keeps each experiment iteration small enough to benchmark.
func benchScale() experiments.Scale {
	sc := experiments.QuickScale()
	sc.SelPoints = 3
	sc.Reps = 2
	return sc
}

func cfg(rpp int, dev workload.DeviceKind) workload.Config {
	for _, c := range workload.Table1() {
		if c.RowsPerPage == rpp && c.Device == dev {
			return c
		}
	}
	panic("no such config")
}

func BenchmarkFig1(b *testing.B) {
	sc := benchScale()
	var ssdRatio float64
	for i := 0; i < b.N; i++ {
		for _, r := range sc.Fig1() {
			if r.Device == "SSD" && r.QueueDepth == 32 {
				ssdRatio = r.RatioPercent
			}
		}
	}
	b.ReportMetric(ssdRatio, "ssd-qd32-%of-seq")
}

func BenchmarkFig4E1SSD(b *testing.B) {
	sc := benchScale()
	var maxGain float64
	for i := 0; i < b.N; i++ {
		rows := sc.Fig4(cfg(1, workload.SSD), []int{32})
		is := map[float64]float64{}
		for _, r := range rows {
			if r.Method == "IS" {
				is[r.Selectivity] = float64(r.Runtime)
			}
		}
		for _, r := range rows {
			if r.Method == "PIS32" {
				if g := is[r.Selectivity] / float64(r.Runtime); g > maxGain {
					maxGain = g
				}
			}
		}
	}
	b.ReportMetric(maxGain, "max-PIS32-gain-x")
}

func BenchmarkFig4E33HDD(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		sc.Fig4(cfg(33, workload.HDD), []int{32})
	}
}

// BenchmarkFig4E33HDDSerial is the same experiment with the host-parallel
// sweep disabled; comparing it against BenchmarkFig4E33HDD shows the
// wall-clock gain from fanning independent grid points across cores.
func BenchmarkFig4E33HDDSerial(b *testing.B) {
	sc := benchScale()
	sc.Parallel = 1
	for i := 0; i < b.N; i++ {
		sc.Fig4(cfg(33, workload.HDD), []int{32})
	}
}

func BenchmarkTable2(b *testing.B) {
	sc := benchScale()
	var shift float64
	for i := 0; i < b.N; i++ {
		for _, r := range sc.Table2() {
			if r.RowsPerPage == 1 {
				shift = r.PSSD / r.NPSSD
			}
		}
	}
	b.ReportMetric(shift, "ssd-rpp1-breakeven-shift-x")
}

func BenchmarkTable3(b *testing.B) {
	sc := benchScale()
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows := sc.Table3()
		ratio = rows[0].PFTS32Ratio // E1, paper: 8.45X
	}
	b.ReportMetric(ratio, "pfts32-ssd/hdd-rpp1-x")
}

func BenchmarkFig5(b *testing.B) {
	sc := benchScale()
	var gain float64
	for i := 0; i < b.N; i++ {
		rt := map[[2]int]float64{}
		for _, r := range sc.Fig5() {
			rt[[2]int{r.Degree, r.Prefetch}] = float64(r.Runtime)
		}
		gain = rt[[2]int{1, 0}] / rt[[2]int{1, 32}]
	}
	b.ReportMetric(gain, "1worker-prefetch32-gain-x")
}

func BenchmarkFig6(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		sc.Fig6()
	}
}

func BenchmarkFig7(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		sc.Fig7()
	}
}

func BenchmarkFig8E33SSD(b *testing.B) {
	sc := benchScale()
	var maxSpeedup float64
	for i := 0; i < b.N; i++ {
		for _, r := range sc.Fig8(cfg(33, workload.SSD)) {
			maxSpeedup = math.Max(maxSpeedup, r.Speedup)
		}
	}
	b.ReportMetric(maxSpeedup, "max-qdtt-speedup-x")
}

func BenchmarkFig9(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		sc.Fig9()
	}
}

func BenchmarkFig10(b *testing.B) {
	sc := benchScale()
	var maxDiff float64
	for i := 0; i < b.N; i++ {
		for _, r := range sc.Fig10() {
			maxDiff = math.Max(maxDiff, math.Abs(r.GWMinusAW))
		}
	}
	b.ReportMetric(maxDiff, "ssd-max-|GW-AW|-us")
}

func BenchmarkFig11(b *testing.B) {
	sc := benchScale()
	var maxDiff float64
	for i := 0; i < b.N; i++ {
		for _, r := range sc.Fig11() {
			maxDiff = math.Max(maxDiff, r.GWMinusAW)
		}
	}
	b.ReportMetric(maxDiff, "raid-max-GW-AW-us")
}

func BenchmarkFig12(b *testing.B) {
	sc := benchScale()
	var worst float64
	for i := 0; i < b.N; i++ {
		for _, r := range sc.Fig12() {
			worst = math.Max(worst, math.Abs(r.ErrPercent))
		}
	}
	b.ReportMetric(worst, "worst-interp-err-%")
}

func BenchmarkQDProfile(b *testing.B) {
	sc := benchScale()
	var mean32 float64
	for i := 0; i < b.N; i++ {
		for _, r := range sc.QDProfile() {
			if r.Degree == 32 {
				mean32 = r.MeanDepth
			}
		}
	}
	b.ReportMetric(mean32, "pis32-mean-queue-depth")
}

func BenchmarkAccuracy(b *testing.B) {
	sc := benchScale()
	var worst float64
	for i := 0; i < b.N; i++ {
		worst = 1
		for _, r := range sc.Accuracy(cfg(33, workload.SSD)) {
			ratio := r.Ratio
			if ratio < 1 {
				ratio = 1 / ratio
			}
			worst = math.Max(worst, ratio)
		}
	}
	b.ReportMetric(worst, "worst-est/measured-x")
}

func BenchmarkOptimality(b *testing.B) {
	sc := benchScale()
	var oldMean, newMean float64
	for i := 0; i < b.N; i++ {
		rows := sc.Optimality(cfg(33, workload.SSD))
		oldMean, newMean = 0, 0
		for _, r := range rows {
			oldMean += r.OldRegret
			newMean += r.NewRegret
		}
		oldMean /= float64(len(rows))
		newMean /= float64(len(rows))
	}
	b.ReportMetric(oldMean, "dtt-mean-regret-x")
	b.ReportMetric(newMean, "qdtt-mean-regret-x")
}

func BenchmarkConcurrency(b *testing.B) {
	sc := benchScale()
	var budgetedVsOver float64
	for i := 0; i < b.N; i++ {
		rows := sc.Concurrency()
		var budgeted, over float64
		for _, r := range rows {
			switch r.Strategy {
			case "concurrent, PIS8 (budgeted)":
				budgeted = r.MakespanMs
			case "concurrent, PIS32 (oversubscribed)":
				over = r.MakespanMs
			}
		}
		budgetedVsOver = budgeted / over
	}
	b.ReportMetric(budgetedVsOver, "budgeted/oversubscribed-makespan")
}

func BenchmarkJoins(b *testing.B) {
	sc := benchScale()
	var worstRegret float64
	for i := 0; i < b.N; i++ {
		worstRegret = 0
		for _, r := range sc.Joins() {
			worstRegret = math.Max(worstRegret, r.Regret)
		}
	}
	b.ReportMetric(worstRegret, "worst-join-planner-regret-x")
}

// benchChoose plans a stream whose constant is fresh every query on one
// calibrated system, on the default path or the greedy one.
func benchChoose(b *testing.B, po pioqo.PlanOptions) {
	sys := pioqo.New(pioqo.Config{Device: pioqo.SSD, PoolPages: 1024})
	tab, err := sys.CreateTable("t", 100_000, 33, pioqo.WithSyntheticData())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sys.Calibrate(pioqo.CalibrationOptions{MaxReads: 640}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := int64(i*997) % 90_000
		if _, err := sys.Plan(pioqo.Query{Table: tab, Low: lo, High: lo + 150}, po); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChoose is the serving baseline: the exact-key memo sees a fresh
// constant every query, so every plan pays a full enumeration.
func BenchmarkChoose(b *testing.B) { benchChoose(b, pioqo.PlanOptions{}) }

// BenchmarkGreedyChoose is the same constant stream through the serving
// path: the parameterized band cache binds constants into cached entries.
func BenchmarkGreedyChoose(b *testing.B) { benchChoose(b, pioqo.PlanOptions{GreedyPlanning: true}) }

// BenchmarkSystemPlan is plan_serving's stream in miniature: a table twelve
// times its pool (so index-scan candidates overflow it), log-uniform
// selectivities from 1e-5 to 0.5, and the workload's three option sets in
// rotation, on the default path and on the greedy one.
func BenchmarkSystemPlan(b *testing.B) {
	const rows = 12 * 1024 * 33
	sys := pioqo.New(pioqo.Config{Device: pioqo.SSD, PoolPages: 1024})
	tab, err := sys.CreateTable("t", rows, 33, pioqo.WithSyntheticData())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sys.Calibrate(pioqo.CalibrationOptions{MaxReads: 640}); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	queries := make([]pioqo.Query, 1<<12)
	for i := range queries {
		width := int64(math.Exp(math.Log(1e-5)+rng.Float64()*math.Log(0.5/1e-5)) * rows)
		lo := rng.Int63n(rows - width)
		queries[i] = pioqo.Query{Table: tab, Low: lo, High: lo + width}
	}
	options := []pioqo.PlanOptions{{}, {QueueBudget: 8}, {ShareParties: 4}}
	for _, greedy := range []bool{false, true} {
		name := "default"
		if greedy {
			name = "greedy"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				po := options[i%len(options)]
				po.GreedyPlanning = greedy
				if _, err := sys.Plan(queries[i%len(queries)], po); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEarlyStop(b *testing.B) {
	sc := benchScale()
	var saving float64
	for i := 0; i < b.N; i++ {
		rows := sc.EarlyStop()
		var full, stopped float64
		for _, r := range rows {
			if r.Device == "HDD" {
				if r.Threshold == 0 {
					full = float64(r.SimTime)
				} else {
					stopped = float64(r.SimTime)
				}
			}
		}
		saving = full / stopped
	}
	b.ReportMetric(saving, "hdd-calibration-saving-x")
}

// benchCalibrate is what a benchmark set-up pays per system: assembly plus a
// cold calibration at bench/'s read budget, with the collector on. Many short
// Runs of a few processes each while the heap is being marked, which is where
// a kernel that keeps the Go scheduler from running shows: the mark worker
// starves and the processes pay its work in assists.
func benchCalibrate(b *testing.B, dev pioqo.DeviceKind) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys := pioqo.New(pioqo.Config{Device: dev, PoolPages: 1024})
		if _, err := sys.Calibrate(pioqo.CalibrationOptions{MaxReads: 1600}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCalibrateSSD(b *testing.B) { benchCalibrate(b, pioqo.SSD) }
func BenchmarkCalibrateHDD(b *testing.B) { benchCalibrate(b, pioqo.HDD) }
