// Command pioqo-explain shows what the DTT-based ("old") and QDTT-based
// ("new") optimizers choose for the paper's probe query across a
// selectivity sweep, with estimated and measured runtimes.
//
// Usage:
//
//	pioqo-explain [-device ssd|hdd] [-rows N] [-rpp N] [-pool N]
//	              [-from SEL] [-to SEL] [-points N] [-verbose]
//
// With -verbose, every candidate plan is listed per selectivity.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"text/tabwriter"

	"pioqo"
)

func main() {
	deviceFlag := flag.String("device", "ssd", "device model: ssd or hdd")
	rows := flag.Int64("rows", 400000, "table cardinality")
	rpp := flag.Int("rpp", 33, "rows per page")
	pool := flag.Int("pool", 2048, "buffer pool pages")
	from := flag.Float64("from", 0.0005, "sweep start selectivity (fraction)")
	to := flag.Float64("to", 0.2, "sweep end selectivity (fraction)")
	points := flag.Int("points", 8, "sweep points (geometric)")
	verbose := flag.Bool("verbose", false, "list every candidate plan")
	flag.Parse()

	var kind pioqo.DeviceKind
	switch *deviceFlag {
	case "ssd":
		kind = pioqo.SSD
	case "hdd":
		kind = pioqo.HDD
	default:
		fmt.Fprintf(os.Stderr, "pioqo-explain: unknown device %q\n", *deviceFlag)
		os.Exit(2)
	}

	sys := pioqo.New(pioqo.Config{Device: kind, PoolPages: *pool})
	tab, err := sys.CreateTable("T", *rows, *rpp, pioqo.WithSyntheticData())
	if err != nil {
		fmt.Fprintln(os.Stderr, "pioqo-explain:", err)
		os.Exit(1)
	}
	if _, err := sys.Calibrate(pioqo.CalibrationOptions{}); err != nil {
		fmt.Fprintln(os.Stderr, "pioqo-explain:", err)
		os.Exit(1)
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintf(w, "# %s, %d rows, %d rows/page, pool %d pages\n",
		sys.DeviceName(), *rows, *rpp, *pool)
	fmt.Fprintln(w, "selectivity\told_plan\tnew_plan\told_runtime\tnew_runtime\tspeedup")

	ratio := *to / *from
	for i := 0; i < *points; i++ {
		sel := *from
		if *points > 1 {
			sel = *from * math.Pow(ratio, float64(i)/float64(*points-1))
		}
		hi := int64(sel*float64(*rows)) - 1
		if hi < 0 {
			hi = 0
		}
		q := pioqo.Query{Table: tab, Low: 0, High: hi}

		oldPlan, err := sys.Plan(q, pioqo.PlanOptions{DepthOblivious: true})
		exitOn(err)
		newPlan, err := sys.Plan(q, pioqo.PlanOptions{})
		exitOn(err)
		oldRes, err := sys.ExecutePlan(q, oldPlan, pioqo.Cold())
		exitOn(err)
		newRes, err := sys.ExecutePlan(q, newPlan, pioqo.Cold())
		exitOn(err)

		fmt.Fprintf(w, "%.5g\t%v\t%v\t%v\t%v\t%.2fx\n",
			sel, oldPlan, newPlan, oldRes.Runtime, newRes.Runtime,
			float64(oldRes.Runtime)/float64(newRes.Runtime))

		if *verbose {
			plans, err := sys.Explain(q, pioqo.PlanOptions{})
			exitOn(err)
			for _, p := range plans {
				fmt.Fprintf(w, "\tcandidate\t%v\tio=%v\tcpu=%v\n",
					p, p.EstimatedIO, p.EstimatedCPU)
			}
		}
	}
	w.Flush()
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "pioqo-explain:", err)
		os.Exit(1)
	}
}
