package pioqo_test

import (
	"fmt"
	"log"

	"pioqo"
)

// The engine is deterministic end to end — same seed, same virtual-time
// results — so these examples assert their output exactly.

func Example() {
	sys := pioqo.New(pioqo.Config{Device: pioqo.SSD, PoolPages: 2048})
	tab, err := sys.CreateTable("orders", 100_000, 33, pioqo.WithSyntheticData())
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sys.Calibrate(pioqo.CalibrationOptions{}); err != nil {
		log.Fatal(err)
	}
	res, err := sys.Execute(pioqo.Query{Table: tab, Low: 0, High: 999}, pioqo.Cold())
	if err != nil {
		log.Fatal(err)
	}
	// Synthetic keys are a permutation: the 1000-key range matches exactly
	// 1000 rows, through whatever plan the optimizer picked.
	fmt.Println(res.Rows, res.Plan.Method)
	// Output: 1000 IndexScan
}

func ExampleSystem_Plan() {
	sys := pioqo.New(pioqo.Config{Device: pioqo.SSD, PoolPages: 2048})
	tab, err := sys.CreateTable("t", 100_000, 33, pioqo.WithSyntheticData())
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sys.Calibrate(pioqo.CalibrationOptions{}); err != nil {
		log.Fatal(err)
	}
	// Narrow the range until the depth-oblivious optimizer prefers the index
	// to a full scan: where that happens is the calibrated model's business.
	q := pioqo.Query{Table: tab, Low: 0, High: 9_999}
	oldPlan, _ := sys.Plan(q, pioqo.PlanOptions{DepthOblivious: true})
	for oldPlan.Method != pioqo.IndexScan {
		q.High /= 2
		oldPlan, _ = sys.Plan(q, pioqo.PlanOptions{DepthOblivious: true})
	}
	newPlan, _ := sys.Plan(q, pioqo.PlanOptions{})
	fmt.Printf("DTT:  %v, parallel %t\n", oldPlan.Method, oldPlan.Degree > 1)
	fmt.Printf("QDTT: %v, parallel %t\n", newPlan.Method, newPlan.Degree > 1)
	// Output:
	// DTT:  IndexScan, parallel false
	// QDTT: IndexScan, parallel true
}

func ExampleSystem_ExecuteGroupBy() {
	sys := pioqo.New(pioqo.Config{Device: pioqo.SSD, PoolPages: 2048})
	tab, err := sys.CreateTable("t", 50_000, 33, pioqo.WithSyntheticData())
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sys.Calibrate(pioqo.CalibrationOptions{}); err != nil {
		log.Fatal(err)
	}
	res, err := sys.ExecuteGroupBy(pioqo.GroupByQuery{
		Table: tab, Low: 0, High: 2999, GroupWidth: 1000, Agg: pioqo.Count,
	}, pioqo.Cold())
	if err != nil {
		log.Fatal(err)
	}
	for _, g := range res.Groups {
		fmt.Printf("group %d: %d rows\n", g.Key, g.Value)
	}
	// Output:
	// group 0: 1000 rows
	// group 1: 1000 rows
	// group 2: 1000 rows
}
