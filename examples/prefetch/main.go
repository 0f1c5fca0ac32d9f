// Prefetch: reproduce §3.3 of the paper — asynchronous per-worker
// prefetching raises the device queue depth of an index scan without
// spending worker threads, and combining a few workers with deep prefetch
// matches many workers with none (Fig. 5).
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"pioqo"
)

func main() {
	sys := pioqo.New(pioqo.Config{Device: pioqo.SSD, PoolPages: 4096})
	tab, err := sys.CreateTable("T", 400_000, 33, pioqo.WithSyntheticData())
	if err != nil {
		log.Fatal(err)
	}
	// A 3% range scan through the index: ~12,000 random page fetches.
	q := pioqo.Query{Table: tab, Low: 0, High: int64(0.03*400_000) - 1}

	run := func(degree, prefetch int) float64 {
		res, err := sys.Run(context.Background(), q,
			pioqo.WithPlan(pioqo.Plan{Method: pioqo.IndexScan, Degree: degree}),
			pioqo.Cold(), pioqo.WithPrefetch(prefetch))
		if err != nil {
			log.Fatal(err)
		}
		return float64(res.Runtime) / 1e6 // ms
	}

	w := tabwriter.NewWriter(os.Stdout, 4, 0, 2, ' ', 0)
	fmt.Fprint(w, "workers\\prefetch")
	prefetches := []int{0, 1, 2, 4, 8, 16, 32}
	for _, p := range prefetches {
		fmt.Fprintf(w, "\tn=%d", p)
	}
	fmt.Fprintln(w)
	for _, degree := range []int{1, 2, 4, 8, 16, 32} {
		fmt.Fprintf(w, "%d", degree)
		for _, p := range prefetches {
			fmt.Fprintf(w, "\t%.1fms", run(degree, p))
		}
		fmt.Fprintln(w)
	}
	w.Flush()

	fmt.Println()
	w32 := run(32, 0)
	p4x32 := run(4, 32)
	fmt.Printf("32 workers, no prefetch:       %.1fms\n", w32)
	fmt.Printf("4 workers, prefetch depth 32:  %.1fms\n", p4x32)
	fmt.Println("A handful of workers with deep prefetch rivals a full worker fleet —")
	fmt.Println("the queue depth, not the thread count, is what the SSD responds to.")
}
