// Quickstart: build a table on a simulated SSD, calibrate the QDTT cost
// model, and run the paper's probe query — first with a queue-depth-aware
// plan, then with the plan a depth-oblivious (DTT) optimizer would pick.
package main

import (
	"context"
	"fmt"
	"log"

	"pioqo"
)

func main() {
	// A system is a single-table-or-more analytical engine over one
	// simulated device; everything below runs in deterministic virtual
	// time.
	sys := pioqo.New(pioqo.Config{Device: pioqo.SSD, PoolPages: 2048})

	// 400k rows, 33 per page — the paper's "typical" T33 shape. C2 is
	// uniform and indexed; C1 is the aggregated column.
	tab, err := sys.CreateTable("orders", 400_000, 33)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("table %q: %d rows on %d pages (%s)\n",
		tab.Name(), tab.Rows(), tab.Pages(), sys.DeviceName())

	// Calibration measures the device and produces the QDTT model: the
	// amortized cost of a page read as a function of band size AND queue
	// depth. This is the paper's §4.4 process (active waiting, M=3200).
	cal, err := sys.Calibrate(pioqo.CalibrationOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("calibrated %d bands x %d depths in %v of device time (%d reads)\n",
		len(cal.Bands), len(cal.Depths), cal.Elapsed, cal.Reads)

	// SELECT MAX(C1) FROM orders WHERE C2 BETWEEN 0 AND 799 — a 0.2%
	// selectivity range probe.
	q := pioqo.Query{Table: tab, Low: 0, High: 799}

	res, err := sys.Run(context.Background(), q, pioqo.Cold())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nQDTT optimizer chose %v\n", res.Plan)
	fmt.Printf("  MAX(C1) = %d over %d rows in %v (%d page reads, %.0f MB/s)\n",
		res.Value, res.Rows, res.Runtime, res.PageReads, res.IOThroughputMBps)

	// The same query through the old, depth-oblivious optimizer: DTT cannot
	// see that a deep queue makes random reads cheap, so a parallel index
	// scan looks no better to it than a serial one paying full random-read
	// latency for every row — and at this selectivity it would rather read
	// the whole table.
	old, err := sys.Run(context.Background(), q, pioqo.Cold(),
		pioqo.WithPlanOptions(pioqo.PlanOptions{DepthOblivious: true}))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nDTT optimizer chose %v\n", old.Plan)
	fmt.Printf("  same answer (%d) in %v — %.1fx slower\n",
		old.Value, old.Runtime, float64(old.Runtime)/float64(res.Runtime))
}
