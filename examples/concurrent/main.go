// Concurrent: the paper's §4.3 closes with "when multiple queries are
// running on the system concurrently, the optimizer needs to pass a lower
// queue depth number to the QDTT model". This example runs a batch of
// queries together: the planner splits the device's beneficial queue depth
// across the batch, and the batch finishes far sooner than running the
// same queries back to back.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"pioqo"
)

func main() {
	sys := pioqo.New(pioqo.Config{Device: pioqo.SSD, PoolPages: 2048})
	tab, err := sys.CreateTable("events", 400_000, 33, pioqo.WithSyntheticData())
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sys.Calibrate(pioqo.CalibrationOptions{}); err != nil {
		log.Fatal(err)
	}

	// Four disjoint range probes, each ~0.05% selectivity.
	var queries []pioqo.Query
	for i := 0; i < 4; i++ {
		lo := int64(i) * 100_000
		queries = append(queries, pioqo.Query{Table: tab, Low: lo, High: lo + 199})
	}

	// Back to back, each query planned with the whole device to itself.
	var serialTotal time.Duration
	for _, q := range queries {
		res, err := sys.Run(context.Background(), q, pioqo.Cold())
		if err != nil {
			log.Fatal(err)
		}
		serialTotal += res.Runtime
		fmt.Printf("serial: %v in %v\n", res.Plan, res.Runtime)
	}

	// As one batch: the resource broker admits each query with a lease on
	// the shared queue-depth credits, buffer pool, and CPU workers; plans
	// are priced under the leased budget and credits freed by finished
	// queries are re-brokered to the admission queue.
	sys.FlushBufferPool()
	batch, err := sys.ExecuteConcurrent(queries, pioqo.Cold())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nconcurrent batch: queue budget %d per query\n", batch.QueueBudget)
	for i, r := range batch.Results {
		adm := batch.Admissions[i]
		fmt.Printf("  query %d: %v in %v (%d rows; budget %d, waited %v)\n",
			i, r.Plan, r.Runtime, r.Rows, adm.Budget, adm.Wait)
	}
	fmt.Printf("\nserial total:   %v\n", serialTotal)
	fmt.Printf("batch elapsed:  %v (%.1fx faster, %.0f MB/s sustained)\n",
		batch.Elapsed, float64(serialTotal)/float64(batch.Elapsed),
		batch.IOThroughputMBps)
}
