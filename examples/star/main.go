// Star: a small star-schema session exercising the operator extensions —
// parallel hash join, index nested-loop join (chosen by the planner from
// distinct-key statistics), and parallel hash group-by — all planned with
// the same calibrated QDTT model as the paper's scans.
package main

import (
	"context"
	"fmt"
	"log"

	"pioqo"
)

func main() {
	sys := pioqo.New(pioqo.Config{Device: pioqo.SSD, PoolPages: 4096})

	// A fact table, a uniform dimension, and a skewed dimension whose few
	// hot keys repeat a lot (Zipf 1.5).
	fact, err := sys.CreateTable("fact", 200_000, 33)
	if err != nil {
		log.Fatal(err)
	}
	dim, err := sys.CreateTable("dim", 30_000, 33)
	if err != nil {
		log.Fatal(err)
	}
	hot, err := sys.CreateTable("hot", 30_000, 33, pioqo.WithZipfData(1.5))
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sys.Calibrate(pioqo.CalibrationOptions{}); err != nil {
		log.Fatal(err)
	}

	// Join 1: uniform dimension — the predicate pushes down to the fact
	// side, so the planner keeps the hash join.
	j1, err := sys.Run(context.Background(), pioqo.JoinQuery{
		Build: dim, Probe: fact, Low: 0, High: 999, Agg: pioqo.Count,
	}, pioqo.Cold())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fact ⋈ dim   : %-11s %6d pairs in %8v  (build %v, probe %v)\n",
		j1.Plan.Join.Method, j1.Rows, j1.Runtime, j1.Plan.Join.Build, j1.Plan.Join.Probe)

	// Join 2: skewed dimension over a wide range — few distinct keys, so
	// the distinct-count statistics flip the planner to index nested-loop.
	j2, err := sys.Run(context.Background(), pioqo.JoinQuery{
		Build: hot, Probe: fact, Low: 0, High: 29_999, Agg: pioqo.Count,
	}, pioqo.Cold())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fact ⋈ hot   : %-11s %6d pairs in %8v  (build %v, probe %v)\n",
		j2.Plan.Join.Method, j2.Rows, j2.Runtime, j2.Plan.Join.Build, j2.Plan.Join.Probe)

	// Grouped aggregation over the fact table.
	gb, err := sys.Run(context.Background(), pioqo.GroupByQuery{
		Table: fact, Low: 0, High: 9_999, GroupWidth: 2_000, Agg: pioqo.Count,
	}, pioqo.Cold())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("group-by     : %d groups over %d rows in %v via %v\n",
		len(gb.Groups), gb.Rows, gb.Runtime, gb.Plan)
	for _, g := range gb.Groups {
		fmt.Printf("  key range [%d, %d): %d rows\n",
			g.Key*2000, (g.Key+1)*2000, g.Value)
	}
}
