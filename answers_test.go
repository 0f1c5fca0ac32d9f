package pioqo

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"pioqo/internal/golden"
)

// TestSyntheticAnswersGolden pins what a query on a synthetic table returns:
// (Value, Found, Rows) of 200 seed-drawn ranges on each page occupancy of
// Table 1 at two table seeds, every range run under a serial full scan and a
// serial index scan, which must agree with each other and with a file
// generated at the parent of the commit that gave the synthetic heap its keyed
// page placement. A change to the generator may move rows between pages; it
// may not change the set of (C1, C2) pairs, and the file is what shows it has
// not. -update is for a change that means to change that set.
func TestSyntheticAnswersGolden(t *testing.T) {
	t.Parallel()
	out := golden.Twice(t, func() string { return syntheticAnswers(t) })
	golden.Check(t, filepath.Join("testdata", "synthetic_answers.golden"), out)
}

func syntheticAnswers(t *testing.T) string {
	const ranges = 200
	// Each heap ends in a partial page, except at one row per page.
	shapes := []struct {
		rpp  int
		rows int64
	}{{1, 1500}, {33, 33*400 + 17}, {500, 500*120 + 250}}
	var out strings.Builder
	for _, sh := range shapes {
		for _, seed := range []int64{3, 11} {
			sys := New(Config{Device: SSD, PoolPages: 256})
			tab, err := sys.CreateTable("t", sh.rows, sh.rpp, WithSyntheticData(), WithTableSeed(seed))
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&out, "# rows=%d rpp=%d seed=%d: aggregate low high value found rows\n", sh.rows, sh.rpp, seed)
			rng := rand.New(rand.NewSource(seed*1000 + int64(sh.rpp)))
			for i := 0; i < ranges; i++ {
				// Mostly a few hundred keys wide; every eighth range starts
				// below the domain or runs past its end.
				lo := rng.Int63n(sh.rows)
				hi := lo + rng.Int63n(300)
				if i%8 == 0 {
					lo = rng.Int63n(sh.rows+200) - 100
					hi = lo + rng.Int63n(sh.rows/4)
				}
				q := Query{Table: tab, Low: lo, High: hi, Agg: Aggregate(i % 4)}
				fts, err := sys.Run(context.Background(), q, WithPlan(Plan{Method: FullTableScan, Degree: 1}))
				if err != nil {
					t.Fatal(err)
				}
				is, err := sys.Run(context.Background(), q, WithPlan(Plan{Method: IndexScan, Degree: 1}))
				if err != nil {
					t.Fatal(err)
				}
				if is.Value != fts.Value || is.Found != fts.Found || is.Rows != fts.Rows {
					t.Fatalf("rpp=%d seed=%d %v [%d,%d]: index scan (%d %v %d), full scan (%d %v %d)", sh.rpp, seed,
						q.Agg, lo, hi, is.Value, is.Found, is.Rows, fts.Value, fts.Found, fts.Rows)
				}
				fmt.Fprintf(&out, "%v %d %d %d %v %d\n", q.Agg, lo, hi, fts.Value, fts.Found, fts.Rows)
			}
		}
	}
	return out.String()
}
