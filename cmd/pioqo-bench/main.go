// Command pioqo-bench regenerates any table or figure from the paper's
// evaluation as tab-separated values, or — for the curve figures — as
// ASCII charts.
//
// Usage:
//
//	pioqo-bench [-scale quick|default] [-panel a..f] [-ascii] [-trace out.json] [-json] [-parallel n] <experiment>
//
// Flags may also follow the experiment name. -trace writes every
// virtual-time span the run produced (one process lane per system, one
// thread lane per worker) as Chrome trace_event JSON for chrome://tracing.
// -json makes qdprofile emit its sampled queue-depth series as JSON.
// -parallel sets how many host workers run independent sweep points
// concurrently (0, the default, uses one per core; 1 runs serially) —
// output is byte-identical at any setting, only wall-clock time changes.
//
// Paper experiments: fig1, table1, fig4, table2, table3, fig5, fig6, fig7,
// fig8, fig9, fig10, fig11, fig12, earlystop. Extensions: qdprofile,
// concurrency, joins, mixed, accuracy, optimality. "all" runs everything.
// What the later subsystems (broker, faults, shared scans, plan cache,
// cluster, adaptive controller) do is measured by bench/ — see
// bench/README.md.
//
// fig4 and fig8 accept -panel to select one configuration (fig4: a..f for
// E1-HDD, E1-SSD, E33-HDD, E33-SSD, E500-HDD, E500-SSD; fig8: a..c for
// E1/E33/E500-SSD); without -panel every panel is printed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"pioqo/internal/experiments"
	"pioqo/internal/obs"
	"pioqo/internal/plot"
	"pioqo/internal/workload"
)

var (
	ascii    = flag.Bool("ascii", false, "render curve figures (fig1, fig4, fig5, fig8) as ASCII charts")
	traceOut = flag.String("trace", "", "write the run's virtual-time spans as Chrome trace_event JSON to this file (open in chrome://tracing)")
	jsonOut  = flag.Bool("json", false, "qdprofile: emit the sampled series as JSON instead of the TSV summary")
	parallel = flag.Int("parallel", 0, "host workers for sweep points: 0 = one per core, 1 = serial (output is identical either way)")
)

func main() {
	scaleFlag := flag.String("scale", "default", "experiment scale: quick or default")
	panel := flag.String("panel", "", "panel letter for fig4 (a-f) / fig8 (a-c)")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	exp := flag.Arg(0)
	// Accept flags after the experiment name too, so
	// "pioqo-bench fig4 -panel=a -trace out.json" works.
	if err := flag.CommandLine.Parse(flag.Args()[1:]); err != nil {
		os.Exit(2)
	}
	if flag.NArg() != 0 {
		usage()
		os.Exit(2)
	}

	var sc experiments.Scale
	switch *scaleFlag {
	case "quick":
		sc = experiments.QuickScale()
	case "default":
		sc = experiments.DefaultScale()
	default:
		fmt.Fprintf(os.Stderr, "pioqo-bench: unknown scale %q\n", *scaleFlag)
		os.Exit(2)
	}

	sc.Parallel = *parallel

	var tr *obs.Trace
	if *traceOut != "" {
		tr = obs.NewTrace()
		sc.Trace = tr
	}

	if exp == "all" {
		for _, e := range []string{"fig1", "table1", "fig4", "table2", "table3",
			"fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
			"earlystop", "qdprofile", "concurrency", "joins", "mixed",
			"accuracy", "optimality"} {
			fmt.Printf("== %s ==\n", e)
			if err := run(sc, e, *panel); err != nil {
				fmt.Fprintf(os.Stderr, "pioqo-bench: %v\n", err)
				os.Exit(1)
			}
			fmt.Println()
		}
		writeTrace(tr)
		return
	}
	if err := run(sc, exp, *panel); err != nil {
		fmt.Fprintf(os.Stderr, "pioqo-bench: %v\n", err)
		os.Exit(1)
	}
	writeTrace(tr)
}

// writeTrace exports the collected spans as Chrome trace_event JSON to the
// -trace file, if tracing was requested.
func writeTrace(tr *obs.Trace) {
	if tr == nil {
		return
	}
	f, err := os.Create(*traceOut)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pioqo-bench: %v\n", err)
		os.Exit(1)
	}
	if err := tr.WriteChrome(f); err == nil {
		err = f.Close()
	} else {
		f.Close()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "pioqo-bench: writing trace: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "pioqo-bench: wrote Chrome trace to %s (open in chrome://tracing)\n", *traceOut)
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: pioqo-bench [-scale quick|default] [-panel a..f] [-trace out.json] [-json] [-parallel n] <experiment>

experiments:
  fig1       sequential vs parallel-random throughput, HDD & SSD
  table1     the six experimental configurations
  fig4       runtime of Q vs selectivity per access method (6 panels)
  table2     break-even selectivity shifts
  table3     PFTS32 vs FTS I/O throughput
  fig5       index-scan prefetching sweep
  fig6       calibrated DTT models (HDD & SSD)
  fig7       calibrated QDTT models (HDD & SSD)
  fig8       DTT- vs QDTT-based optimizer runtimes (3 panels)
  fig9       GW vs AW calibration on SSD
  fig10      GW-AW difference surface on SSD
  fig11      GW-AW difference surface on 8-spindle RAID
  fig12      interpolation accuracy of exponential depth calibration
  earlystop  calibration-time savings from the stop threshold
  qdprofile  measured PIS queue-depth profiles per parallel degree (§2)
  concurrency inter- vs intra-query parallelism strategies (§4.3)
  joins      hash vs index nested-loop join ablation across build skew
  mixed      whole-workload comparison of DTT vs QDTT planning
  accuracy   QDTT estimated cost vs measured runtime per candidate plan
  optimality measured regret of DTT vs QDTT plan choices
  all        everything above
`)
}

// tw returns a tab writer for aligned TSV output.
func tw() *tabwriter.Writer {
	return tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
}

func fig4Panels(panel string) ([]workload.Config, error) {
	all := workload.Table1()
	if panel == "" {
		return all, nil
	}
	if len(panel) != 1 || panel[0] < 'a' || panel[0] > 'f' {
		return nil, fmt.Errorf("fig4 panel must be a..f, got %q", panel)
	}
	return all[panel[0]-'a' : panel[0]-'a'+1], nil
}

func fig8Panels(panel string) ([]workload.Config, error) {
	ssd := []workload.Config{
		{Name: "E1-SSD", RowsPerPage: 1, Device: workload.SSD},
		{Name: "E33-SSD", RowsPerPage: 33, Device: workload.SSD},
		{Name: "E500-SSD", RowsPerPage: 500, Device: workload.SSD},
	}
	if panel == "" {
		return ssd, nil
	}
	if len(panel) != 1 || panel[0] < 'a' || panel[0] > 'c' {
		return nil, fmt.Errorf("fig8 panel must be a..c, got %q", panel)
	}
	return ssd[panel[0]-'a' : panel[0]-'a'+1], nil
}

func run(sc experiments.Scale, exp, panel string) error {
	w := tw()
	defer w.Flush()
	switch exp {
	case "fig1":
		rows := sc.Fig1()
		if *ascii {
			byDev := map[string]*plot.Series{}
			var order []string
			for _, r := range rows {
				s, ok := byDev[r.Device]
				if !ok {
					s = &plot.Series{Name: r.Device + " random %of seq"}
					byDev[r.Device] = s
					order = append(order, r.Device)
				}
				s.X = append(s.X, float64(r.QueueDepth))
				s.Y = append(s.Y, r.RatioPercent)
			}
			var series []plot.Series
			for _, d := range order {
				series = append(series, *byDev[d])
			}
			fmt.Fprintln(w, plot.Render(series, plot.Options{
				Title:  "Fig 1 — parallel random reads as % of sequential",
				LogX:   true,
				XLabel: "queue depth", YLabel: "% of sequential",
			}))
			return nil
		}
		fmt.Fprintln(w, "device\tqueue_depth\trandom_MBps\tseq_MBps\tratio_%")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%d\t%.1f\t%.1f\t%.2f\n",
				r.Device, r.QueueDepth, r.RandomMBps, r.SeqMBps, r.RatioPercent)
		}
	case "table1":
		fmt.Fprintln(w, "experiment\ttable\trows_per_page\tdevice")
		for _, c := range workload.Table1() {
			fmt.Fprintf(w, "%s\tT%d\t%d\t%s\n", c.Name, c.RowsPerPage, c.RowsPerPage, c.Device)
		}
	case "fig4":
		cfgs, err := fig4Panels(panel)
		if err != nil {
			return err
		}
		for _, cfg := range cfgs {
			rows := sc.Fig4(cfg, []int{32})
			if *ascii {
				byMethod := map[string]*plot.Series{}
				var order []string
				for _, r := range rows {
					s, ok := byMethod[r.Method]
					if !ok {
						s = &plot.Series{Name: r.Method}
						byMethod[r.Method] = s
						order = append(order, r.Method)
					}
					s.X = append(s.X, r.Selectivity*100)
					s.Y = append(s.Y, r.Runtime.Millis())
				}
				var series []plot.Series
				for _, m := range order {
					series = append(series, *byMethod[m])
				}
				fmt.Fprintln(w, plot.Render(series, plot.Options{
					Title: "Fig 4 " + cfg.Name + " — runtime of Q per access method",
					LogX:  true, LogY: true,
					XLabel: "selectivity %", YLabel: "runtime ms",
				}))
				continue
			}
			if cfg == cfgs[0] {
				fmt.Fprintln(w, "config\tselectivity\tmethod\truntime")
			}
			for _, r := range rows {
				fmt.Fprintf(w, "%s\t%.6g\t%s\t%v\n", r.Config, r.Selectivity, r.Method, r.Runtime)
			}
		}
	case "table2":
		fmt.Fprintln(w, "rows_per_page\tNP-HDD_%\tP-HDD_%\tNP-SSD_%\tP-SSD_%")
		for _, r := range sc.Table2() {
			fmt.Fprintf(w, "%d\t%.4g\t%.4g\t%.4g\t%.4g\n",
				r.RowsPerPage, r.NPHDD*100, r.PHDD*100, r.NPSSD*100, r.PSSD*100)
		}
	case "table3":
		fmt.Fprintln(w, "rows_per_page\tPFTS32_HDD_MBps\tPFTS32_SSD_MBps\tPFTS32_ratio\tFTS_HDD_MBps\tFTS_SSD_MBps\tFTS_ratio")
		for _, r := range sc.Table3() {
			fmt.Fprintf(w, "%d\t%.2f\t%.2f\t%.2fX\t%.2f\t%.2f\t%.2fX\n",
				r.RowsPerPage, r.PFTS32HDD, r.PFTS32SSD, r.PFTS32Ratio,
				r.FTSHDD, r.FTSSSD, r.FTSRatio)
		}
	case "fig5":
		rows := sc.Fig5()
		if *ascii {
			byDeg := map[int]*plot.Series{}
			var order []int
			for _, r := range rows {
				s, ok := byDeg[r.Degree]
				if !ok {
					s = &plot.Series{Name: fmt.Sprintf("%d workers", r.Degree)}
					byDeg[r.Degree] = s
					order = append(order, r.Degree)
				}
				s.X = append(s.X, float64(r.Prefetch))
				s.Y = append(s.Y, r.Runtime.Millis())
			}
			var series []plot.Series
			for _, d := range order {
				series = append(series, *byDeg[d])
			}
			fmt.Fprintln(w, plot.Render(series, plot.Options{
				Title:  "Fig 5 — PIS runtime vs per-worker prefetch depth",
				LogY:   true,
				XLabel: "prefetch depth n", YLabel: "runtime ms",
			}))
			return nil
		}
		fmt.Fprintln(w, "degree\tprefetch\truntime")
		for _, r := range rows {
			fmt.Fprintf(w, "%d\t%d\t%v\n", r.Degree, r.Prefetch, r.Runtime)
		}
	case "fig6":
		fmt.Fprintln(w, "device\tband_pages\tmicros_per_page")
		for _, r := range sc.Fig6() {
			fmt.Fprintf(w, "%s\t%d\t%.2f\n", r.Device, r.Band, r.Micros)
		}
	case "fig7":
		fmt.Fprintln(w, "device\tband_pages\tqueue_depth\tmicros_per_page")
		for _, r := range sc.Fig7() {
			fmt.Fprintf(w, "%s\t%d\t%d\t%.2f\n", r.Device, r.Band, r.Depth, r.Micros)
		}
	case "fig8":
		cfgs, err := fig8Panels(panel)
		if err != nil {
			return err
		}
		for _, cfg := range cfgs {
			rows := sc.Fig8(cfg)
			if *ascii {
				oldS := plot.Series{Name: "old optimizer (DTT)"}
				newS := plot.Series{Name: "new optimizer (QDTT)"}
				for _, r := range rows {
					oldS.X = append(oldS.X, r.Selectivity*100)
					oldS.Y = append(oldS.Y, r.OldRuntime.Millis())
					newS.X = append(newS.X, r.Selectivity*100)
					newS.Y = append(newS.Y, r.NewRuntime.Millis())
				}
				fmt.Fprintln(w, plot.Render([]plot.Series{oldS, newS}, plot.Options{
					Title: "Fig 8 " + cfg.Name + " — DTT vs QDTT optimizer",
					LogX:  true, LogY: true,
					XLabel: "selectivity %", YLabel: "runtime ms",
				}))
				continue
			}
			if cfg == cfgs[0] {
				fmt.Fprintln(w, "config\tselectivity\told_plan\tnew_plan\told_runtime\tnew_runtime\tspeedup")
			}
			for _, r := range rows {
				fmt.Fprintf(w, "%s\t%.6g\t%s\t%s\t%v\t%v\t%.2f\n",
					r.Config, r.Selectivity, r.OldPlan, r.NewPlan,
					r.OldRuntime, r.NewRuntime, r.Speedup)
			}
		}
	case "fig9":
		fmt.Fprintln(w, "method\tband_pages\tqueue_depth\tmicros_per_page\tstddev")
		for _, r := range sc.Fig9() {
			fmt.Fprintf(w, "%s\t%d\t%d\t%.2f\t%.2f\n", r.Device, r.Band, r.Depth, r.Micros, r.StdDev)
		}
	case "fig10", "fig11":
		rows := sc.Fig10()
		if exp == "fig11" {
			rows = sc.Fig11()
		}
		fmt.Fprintln(w, "band_pages\tqueue_depth\tGW_micros\tAW_micros\tGW_minus_AW")
		for _, r := range rows {
			fmt.Fprintf(w, "%d\t%d\t%.2f\t%.2f\t%.2f\n",
				r.Band, r.Depth, r.GWMicros, r.AWMicros, r.GWMinusAW)
		}
	case "fig12":
		fmt.Fprintln(w, "band_pages\tqueue_depth\tmeasured_micros\tinterpolated_micros\terr_%")
		for _, r := range sc.Fig12() {
			fmt.Fprintf(w, "%d\t%d\t%.2f\t%.2f\t%.2f\n",
				r.Band, r.Depth, r.Measured, r.Interpolated, r.ErrPercent)
		}
	case "earlystop":
		fmt.Fprintln(w, "device\tthreshold\tsim_time\treads\tdepths_calibrated\tstopped_early")
		for _, r := range sc.EarlyStop() {
			fmt.Fprintf(w, "%s\t%.2f\t%v\t%d\t%d\t%v\n",
				r.Device, r.Threshold, r.SimTime, r.Reads, r.DepthsCalibrated, r.StoppedEarly)
		}
	case "mixed":
		fmt.Fprintln(w, "optimizer\tqueries\ttotal_ms\tmean_ms\tp95_ms\tworst_ms\tparallel_queries")
		for _, r := range sc.Mixed(20) {
			fmt.Fprintf(w, "%s\t%d\t%.1f\t%.2f\t%.2f\t%.2f\t%d\n",
				r.Optimizer, r.Queries, r.TotalMs, r.MeanMs, r.P95Ms, r.WorstMs, r.ParallelQs)
		}
	case "joins":
		fmt.Fprintln(w, "build_skew\tdistinct_%\thash_ms\tnl_ms\tchosen\tregret")
		for _, r := range sc.Joins() {
			fmt.Fprintf(w, "%.1f\t%.1f\t%.2f\t%.2f\t%s\t%.2fx\n",
				r.BuildSkew, r.DistinctPct, r.HashMs, r.NLMs, r.Chosen, r.Regret)
		}
	case "concurrency":
		fmt.Fprintln(w, "strategy\tqueries\tdegree\tmakespan_ms\tmean_latency_ms\tMBps")
		for _, r := range sc.Concurrency() {
			fmt.Fprintf(w, "%s\t%d\t%d\t%.2f\t%.2f\t%.0f\n",
				r.Strategy, r.Queries, r.Degree, r.MakespanMs, r.MeanLatMs, r.Throughput)
		}
	case "qdprofile":
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(sc.QDProfileSeries())
		}
		fmt.Fprintln(w, "degree\tmean_depth\tp50_depth\tmax_depth")
		for _, r := range sc.QDProfile() {
			fmt.Fprintf(w, "%d\t%.2f\t%d\t%d\n", r.Degree, r.MeanDepth, r.P50Depth, r.MaxDepth)
		}
	case "accuracy":
		fmt.Fprintln(w, "config\tselectivity\tplan\testimated_ms\tmeasured_ms\tratio")
		for _, r := range sc.Accuracy(workload.Config{Name: "E33-SSD", RowsPerPage: 33, Device: workload.SSD}) {
			fmt.Fprintf(w, "%s\t%.6g\t%s\t%.2f\t%.2f\t%.2f\n",
				r.Config, r.Selectivity, r.Plan, r.EstimatedMs, r.MeasuredMs, r.Ratio)
		}
	case "optimality":
		fmt.Fprintln(w, "config\tselectivity\tbest_plan\tbest_ms\told_plan\told_regret\tnew_plan\tnew_regret")
		for _, r := range sc.Optimality(workload.Config{Name: "E33-SSD", RowsPerPage: 33, Device: workload.SSD}) {
			fmt.Fprintf(w, "%s\t%.6g\t%s\t%.2f\t%s\t%.2fx\t%s\t%.2fx\n",
				r.Config, r.Selectivity, r.BestPlan, r.BestMs,
				r.OldPlan, r.OldRegret, r.NewPlan, r.NewRegret)
		}
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}
