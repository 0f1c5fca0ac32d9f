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
// The experiments are the paper's tables and figures plus a few extensions;
// "pioqo-bench -h" lists them from the one table that also drives "all",
// which runs every one. What the later subsystems (broker, faults, shared scans, plan cache, cluster,
// adaptive controller) do is measured by bench/ — see bench/README.md.
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

	found := false
	for _, e := range experimentList {
		if exp != "all" && exp != e.name {
			continue
		}
		found = true
		if exp == "all" {
			fmt.Printf("== %s ==\n", e.name)
		}
		w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
		err := e.print(w, sc, *panel)
		w.Flush()
		if err != nil {
			fmt.Fprintf(os.Stderr, "pioqo-bench: %v\n", err)
			os.Exit(1)
		}
		if exp == "all" {
			fmt.Println()
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "pioqo-bench: unknown experiment %q\n", exp)
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

// experiment is one table or figure the command regenerates: its name on
// the command line, its line in the usage text, and what prints it.
type experiment struct {
	name, help string
	print      func(w *tabwriter.Writer, sc experiments.Scale, panel string) error
}

// experimentList is every experiment, in the order usage lists them and
// "all" runs them.
var experimentList = []experiment{
	{"fig1", "sequential vs parallel-random throughput, HDD & SSD", fig1},
	{"table1", "the six experimental configurations", table1},
	{"fig4", "runtime of Q vs selectivity per access method (6 panels)", fig4},
	{"table2", "break-even selectivity shifts", table2},
	{"table3", "PFTS32 vs FTS I/O throughput", table3},
	{"fig5", "index-scan prefetching sweep", fig5},
	{"fig6", "calibrated DTT models (HDD & SSD)", fig6},
	{"fig7", "calibrated QDTT models (HDD & SSD)", fig7},
	{"fig8", "DTT- vs QDTT-based optimizer runtimes (3 panels)", fig8},
	{"fig9", "GW vs AW calibration on SSD", fig9},
	{"fig10", "GW-AW difference surface on SSD", func(w *tabwriter.Writer, sc experiments.Scale, _ string) error {
		return gwMinusAW(w, sc.Fig10())
	}},
	{"fig11", "GW-AW difference surface on 8-spindle RAID", func(w *tabwriter.Writer, sc experiments.Scale, _ string) error {
		return gwMinusAW(w, sc.Fig11())
	}},
	{"fig12", "interpolation accuracy of exponential depth calibration", fig12},
	{"earlystop", "calibration-time savings from the stop threshold", earlyStop},
	{"qdprofile", "measured PIS queue-depth profiles per parallel degree (§2)", qdProfile},
	{"accuracy", "QDTT estimated cost vs measured runtime per candidate plan", accuracy},
	{"optimality", "measured regret of DTT vs QDTT plan choices", optimality},
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: pioqo-bench [-scale quick|default] [-panel a..f] [-ascii] [-trace out.json] [-json] [-parallel n] <experiment>")
	fmt.Fprintln(os.Stderr, "\nexperiments:")
	for _, e := range experimentList {
		fmt.Fprintf(os.Stderr, "  %-10s %s\n", e.name, e.help)
	}
	fmt.Fprintf(os.Stderr, "  %-10s %s\n", "all", "everything above")
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

func fig1(w *tabwriter.Writer, sc experiments.Scale, _ string) error {
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
	return nil
}

func table1(w *tabwriter.Writer, sc experiments.Scale, _ string) error {
	fmt.Fprintln(w, "experiment\ttable\trows_per_page\tdevice")
	for _, c := range workload.Table1() {
		fmt.Fprintf(w, "%s\tT%d\t%d\t%s\n", c.Name, c.RowsPerPage, c.RowsPerPage, c.Device)
	}
	return nil
}

func fig4(w *tabwriter.Writer, sc experiments.Scale, panel string) error {
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
	return nil
}

func table2(w *tabwriter.Writer, sc experiments.Scale, _ string) error {
	fmt.Fprintln(w, "rows_per_page\tNP-HDD_%\tP-HDD_%\tNP-SSD_%\tP-SSD_%")
	for _, r := range sc.Table2() {
		fmt.Fprintf(w, "%d\t%.4g\t%.4g\t%.4g\t%.4g\n",
			r.RowsPerPage, r.NPHDD*100, r.PHDD*100, r.NPSSD*100, r.PSSD*100)
	}
	return nil
}

func table3(w *tabwriter.Writer, sc experiments.Scale, _ string) error {
	fmt.Fprintln(w, "rows_per_page\tPFTS32_HDD_MBps\tPFTS32_SSD_MBps\tPFTS32_ratio\tFTS_HDD_MBps\tFTS_SSD_MBps\tFTS_ratio")
	for _, r := range sc.Table3() {
		fmt.Fprintf(w, "%d\t%.2f\t%.2f\t%.2fX\t%.2f\t%.2f\t%.2fX\n",
			r.RowsPerPage, r.PFTS32HDD, r.PFTS32SSD, r.PFTS32Ratio,
			r.FTSHDD, r.FTSSSD, r.FTSRatio)
	}
	return nil
}

func fig5(w *tabwriter.Writer, sc experiments.Scale, _ string) error {
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
	return nil
}

func fig6(w *tabwriter.Writer, sc experiments.Scale, _ string) error {
	fmt.Fprintln(w, "device\tband_pages\tmicros_per_page")
	for _, r := range sc.Fig6() {
		fmt.Fprintf(w, "%s\t%d\t%.2f\n", r.Device, r.Band, r.Micros)
	}
	return nil
}

func fig7(w *tabwriter.Writer, sc experiments.Scale, _ string) error {
	fmt.Fprintln(w, "device\tband_pages\tqueue_depth\tmicros_per_page")
	for _, r := range sc.Fig7() {
		fmt.Fprintf(w, "%s\t%d\t%d\t%.2f\n", r.Device, r.Band, r.Depth, r.Micros)
	}
	return nil
}

func fig8(w *tabwriter.Writer, sc experiments.Scale, panel string) error {
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
	return nil
}

func fig9(w *tabwriter.Writer, sc experiments.Scale, _ string) error {
	fmt.Fprintln(w, "method\tband_pages\tqueue_depth\tmicros_per_page\tstddev")
	for _, r := range sc.Fig9() {
		fmt.Fprintf(w, "%s\t%d\t%d\t%.2f\t%.2f\n", r.Device, r.Band, r.Depth, r.Micros, r.StdDev)
	}
	return nil
}

func fig12(w *tabwriter.Writer, sc experiments.Scale, _ string) error {
	fmt.Fprintln(w, "band_pages\tqueue_depth\tmeasured_micros\tinterpolated_micros\terr_%")
	for _, r := range sc.Fig12() {
		fmt.Fprintf(w, "%d\t%d\t%.2f\t%.2f\t%.2f\n",
			r.Band, r.Depth, r.Measured, r.Interpolated, r.ErrPercent)
	}
	return nil
}

func earlyStop(w *tabwriter.Writer, sc experiments.Scale, _ string) error {
	fmt.Fprintln(w, "device\tthreshold\tsim_time\treads\tdepths_calibrated\tstopped_early")
	for _, r := range sc.EarlyStop() {
		fmt.Fprintf(w, "%s\t%.2f\t%v\t%d\t%d\t%v\n",
			r.Device, r.Threshold, r.SimTime, r.Reads, r.DepthsCalibrated, r.StoppedEarly)
	}
	return nil
}

func qdProfile(w *tabwriter.Writer, sc experiments.Scale, _ string) error {
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(sc.QDProfileSeries())
	}
	fmt.Fprintln(w, "degree\tmean_depth\tp50_depth\tmax_depth")
	for _, r := range sc.QDProfile() {
		fmt.Fprintf(w, "%d\t%.2f\t%d\t%d\n", r.Degree, r.MeanDepth, r.P50Depth, r.MaxDepth)
	}
	return nil
}

func accuracy(w *tabwriter.Writer, sc experiments.Scale, _ string) error {
	fmt.Fprintln(w, "config\tselectivity\tplan\testimated_ms\tmeasured_ms\tratio")
	for _, r := range sc.Accuracy(workload.Config{Name: "E33-SSD", RowsPerPage: 33, Device: workload.SSD}) {
		fmt.Fprintf(w, "%s\t%.6g\t%s\t%.2f\t%.2f\t%.2f\n",
			r.Config, r.Selectivity, r.Plan, r.EstimatedMs, r.MeasuredMs, r.Ratio)
	}
	return nil
}

func optimality(w *tabwriter.Writer, sc experiments.Scale, _ string) error {
	fmt.Fprintln(w, "config\tselectivity\tbest_plan\tbest_ms\told_plan\told_regret\tnew_plan\tnew_regret")
	for _, r := range sc.Optimality(workload.Config{Name: "E33-SSD", RowsPerPage: 33, Device: workload.SSD}) {
		fmt.Fprintf(w, "%s\t%.6g\t%s\t%.2f\t%s\t%.2fx\t%s\t%.2fx\n",
			r.Config, r.Selectivity, r.BestPlan, r.BestMs,
			r.OldPlan, r.OldRegret, r.NewPlan, r.NewRegret)
	}
	return nil
}

// gwMinusAW prints a GW-AW difference surface (fig10, fig11).
func gwMinusAW(w *tabwriter.Writer, rows []experiments.DiffRow) error {
	fmt.Fprintln(w, "band_pages\tqueue_depth\tGW_micros\tAW_micros\tGW_minus_AW")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%d\t%.2f\t%.2f\t%.2f\n",
			r.Band, r.Depth, r.GWMicros, r.AWMicros, r.GWMinusAW)
	}
	return nil
}
