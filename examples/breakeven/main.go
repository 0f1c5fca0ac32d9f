// Breakeven: reproduce the paper's central observation end to end — the
// selectivity at which a full table scan overtakes an index scan shifts to
// the right once the scans run with intra-query parallelism: furthest on an
// SSD, whose random reads scale with queue depth, and less on a spinning
// disk, where a deep queue only shortens each read's positioning (Fig. 4 /
// Table 2).
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"pioqo"
)

const (
	rows = 200_000
	rpp  = 33
)

func main() {
	for _, dev := range []pioqo.DeviceKind{pioqo.HDD, pioqo.SSD} {
		fmt.Printf("== %v ==\n", dev)
		np := breakEven(dev, 1)
		p := breakEven(dev, 32)
		fmt.Printf("  IS/FTS break-even:       %.4f%%\n", np*100)
		fmt.Printf("  PIS32/PFTS32 break-even: %.4f%%\n", p*100)
		fmt.Printf("  shift: %.1fx\n\n", p/np)
	}
	fmt.Println("The SSD shift exceeds the HDD shift — a depth-oblivious optimizer")
	fmt.Println("choosing between scan methods is wrong over the whole band between")
	fmt.Println("the two crossings, and that band is widest on the SSD.")
}

// breakEven bisects for the selectivity where the index scan's measured
// runtime crosses the full scan's, both at the given parallel degree.
func breakEven(dev pioqo.DeviceKind, degree int) float64 {
	sys := pioqo.New(pioqo.Config{Device: dev, PoolPages: 1024})
	tab, err := sys.CreateTable("T", rows, rpp, pioqo.WithSyntheticData())
	if err != nil {
		log.Fatal(err)
	}

	runtime := func(method pioqo.AccessMethod, sel float64) float64 {
		hi := int64(sel*rows) - 1
		if hi < 0 {
			hi = 0
		}
		res, err := sys.Run(context.Background(),
			pioqo.Query{Table: tab, Low: 0, High: hi},
			pioqo.WithPlan(pioqo.Plan{Method: method, Degree: degree}),
			pioqo.Cold())
		if err != nil {
			log.Fatal(err)
		}
		return float64(res.Runtime)
	}

	fts := runtime(pioqo.FullTableScan, 0.5) // independent of selectivity
	indexWins := func(sel float64) bool { return runtime(pioqo.IndexScan, sel) < fts }

	lo, hi := 1e-6, 0.9
	if !indexWins(lo) {
		return lo
	}
	if indexWins(hi) {
		return hi
	}
	for i := 0; i < 12; i++ {
		mid := math.Sqrt(lo * hi)
		if indexWins(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Sqrt(lo * hi)
}
