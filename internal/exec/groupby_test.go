package exec

import (
	"testing"
)

func TestGroupByMatchesBruteForce(t *testing.T) {
	w := newWorld(t, worldOpts{rows: 4000, rpp: 33})
	const width = 500
	lo, hi := int64(200), int64(3500)

	want := map[int64]*agg{}
	for r := int64(0); r < w.tab.Rows(); r++ {
		row := w.tab.RowAt(r)
		if row.C2 < lo || row.C2 > hi {
			continue
		}
		g := row.C2 / width
		a, ok := want[g]
		if !ok {
			a = &agg{kind: AggMax}
			want[g] = a
		}
		a.add(row.C1)
	}

	for _, m := range []Method{FullScan, IndexScan} {
		for _, degree := range []int{1, 8} {
			res := ExecuteGroupBy(w.ctx, GroupBySpec{
				Scan:       w.spec(m, degree, lo, hi),
				GroupWidth: width,
				Agg:        AggMax,
			})
			if len(res.Groups) != len(want) {
				t.Fatalf("%v deg=%d: %d groups, want %d", m, degree, len(res.Groups), len(want))
			}
			prev := int64(-1 << 62)
			for _, g := range res.Groups {
				if g.Key <= prev {
					t.Fatalf("groups not sorted: %v", res.Groups)
				}
				prev = g.Key
				ref := want[g.Key]
				if ref == nil || g.Value != ref.val || g.Rows != ref.rows {
					t.Errorf("%v deg=%d group %d: (val=%d rows=%d), want (val=%d rows=%d)",
						m, degree, g.Key, g.Value, g.Rows, ref.val, ref.rows)
				}
			}
			w.ctx.Pool.Flush()
		}
	}
}

func TestGroupByEmptyRange(t *testing.T) {
	w := newWorld(t, worldOpts{rows: 500, rpp: 33})
	res := ExecuteGroupBy(w.ctx, GroupBySpec{
		Scan:       w.spec(IndexScan, 2, 300, 299),
		GroupWidth: 100,
		Agg:        AggCount,
	})
	if len(res.Groups) != 0 || res.Rows != 0 {
		t.Errorf("empty range produced %d groups, %d rows", len(res.Groups), res.Rows)
	}
}

func TestGroupByZeroWidthPanics(t *testing.T) {
	w := newWorld(t, worldOpts{rows: 100, rpp: 10})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero group width")
		}
	}()
	ExecuteGroupBy(w.ctx, GroupBySpec{Scan: w.spec(FullScan, 1, 0, 99)})
}

func TestGroupByParallelScanSpeedsItUp(t *testing.T) {
	run := func(degree int) float64 {
		w := newWorld(t, worldOpts{rows: 30000, rpp: 1, poolPages: 1024})
		res := ExecuteGroupBy(w.ctx, GroupBySpec{
			Scan:       w.spec(IndexScan, degree, 0, 6000),
			GroupWidth: 1000,
			Agg:        AggCount,
		})
		return float64(res.Runtime)
	}
	if gain := run(1) / run(32); gain < 5 {
		t.Errorf("32-way group-by gain = %.1fx, want >= 5x on SSD", gain)
	}
}

// A COUNT scan that feeds a row hook still counts its rows: the group-by
// over it sees every input row (and charges hash CPU for them).
func TestGroupByOverCountScanSeesEveryRow(t *testing.T) {
	w := newWorld(t, worldOpts{rows: 4000, rpp: 33})
	lo, hi := int64(200), int64(3500)
	_, _, wantRows := w.bruteForce(lo, hi)
	for _, m := range []Method{FullScan, IndexScan} {
		scan := w.spec(m, 4, lo, hi)
		scan.Agg = AggCount
		res := ExecuteGroupBy(w.ctx, GroupBySpec{Scan: scan, GroupWidth: 500, Agg: AggCount})
		if res.Rows != wantRows {
			t.Errorf("%v: group-by over a COUNT scan consumed %d rows, want %d", m, res.Rows, wantRows)
		}
		var grouped int64
		for _, g := range res.Groups {
			grouped += g.Rows
		}
		if grouped != wantRows {
			t.Errorf("%v: groups hold %d rows, want %d", m, grouped, wantRows)
		}
	}
}
