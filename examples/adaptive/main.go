// Adaptive: a query executed under the feedback controller starts at its
// plan's degree and moves mid-flight only to a degree the optimizer prices
// at least 5 % cheaper — growing only through the broker lease, shedding
// under pool pressure or past the band's beneficial depth. This example
// runs the same cold range-aggregate at several static degrees and once
// adaptively, and prints the controller's decision trail: the adaptive run
// should land within a few percent of whichever static degree wins.
package main

import (
	"fmt"
	"log"
	"os"
	"strings"
	"text/tabwriter"

	"pioqo"
)

func main() {
	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "arm\tdegree\truntime\tpage reads")

	run := func(adaptive bool, degree int) *pioqo.System {
		sys := pioqo.New(pioqo.Config{Device: pioqo.SSD, PoolPages: 1024})
		sys.EnableEventLog(4096)
		tab, err := sys.CreateTable("t", 400_000, 33, pioqo.WithSyntheticData())
		if err != nil {
			log.Fatal(err)
		}
		if _, err := sys.Calibrate(pioqo.CalibrationOptions{}); err != nil {
			log.Fatal(err)
		}
		q := pioqo.Query{Table: tab, Low: 0, High: 1999} // selective index range
		tuning, arm := pioqo.WithAdaptive(), "adaptive"
		if !adaptive {
			tuning, arm = pioqo.WithStaticDegree(degree), fmt.Sprintf("static d%d", degree)
		}
		res, err := sys.Execute(q, pioqo.Cold(), tuning)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(w, "%s\t%d\t%v\t%d\n", arm, res.Plan.Degree, res.Runtime, res.PageReads)
		return sys
	}

	for _, d := range []int{1, 4, 32} {
		run(false, d)
	}
	sys := run(true, 0)
	w.Flush()

	fmt.Println("\ncontroller decision trail:")
	for _, ev := range sys.EngineEvents() {
		if strings.HasPrefix(ev.Name, "adapt.") || strings.HasPrefix(ev.Name, "lease.") {
			fmt.Printf("  %-18s %s=%d %s=%d\n", ev.Name, ev.AName, ev.A, ev.BName, ev.B)
		}
	}
}
