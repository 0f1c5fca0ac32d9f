// Package reference is the naive evaluator the tests hold the engine's
// answers to, imported only by _test.go files. It reads a table.Table row
// by row, with no pages, no index, no plan and no simulated time.
package reference

import "pioqo/internal/table"

// Agg is the aggregates of C1 over the rows a predicate selects. Max and
// Min are SQL's NULL when Rows is 0.
type Agg struct {
	Rows          int64
	Max, Min, Sum int64
}

// Found reports whether any row qualified: MAX and MIN are not NULL.
func (a Agg) Found() bool { return a.Rows > 0 }

// add folds in n copies of a row whose C1 is c1.
func (a *Agg) add(c1, n int64) {
	if a.Rows == 0 {
		a.Max, a.Min = c1, c1
	}
	a.Max, a.Min, a.Sum, a.Rows = max(a.Max, c1), min(a.Min, c1), a.Sum+n*c1, a.Rows+n
}

// Aggregate evaluates the aggregates over t's rows with lo <= C2 <= hi.
func Aggregate(t table.Table, lo, hi int64) (a Agg) {
	scan(t, lo, hi, func(row table.Row) { a.add(row.C1, 1) })
	return a
}

// GroupBy evaluates Aggregate per group C2 / width; groups without rows
// are absent.
func GroupBy(t table.Table, lo, hi, width int64) map[int64]Agg {
	out := map[int64]Agg{}
	scan(t, lo, hi, func(row table.Row) {
		a := out[row.C2/width]
		a.add(row.C1, 1)
		out[row.C2/width] = a
	})
	return out
}

// Join evaluates the equi-join on C2 of build's rows with lo <= C2 <= hi
// against probe's rows: each joined pair adds its probe row's C1, so Rows
// counts the pairs.
func Join(build, probe table.Table, lo, hi int64) (a Agg) {
	mult := map[int64]int64{}
	scan(build, lo, hi, func(row table.Row) { mult[row.C2]++ })
	scan(probe, lo, hi, func(row table.Row) {
		if m := mult[row.C2]; m > 0 {
			a.add(row.C1, m)
		}
	})
	return a
}

// scan calls fn on t's rows with lo <= C2 <= hi, in row order.
func scan(t table.Table, lo, hi int64, fn func(table.Row)) {
	for r := int64(0); r < t.Rows(); r++ {
		if row := t.RowAt(r); row.C2 >= lo && row.C2 <= hi {
			fn(row)
		}
	}
}
