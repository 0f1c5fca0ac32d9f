package exec

import (
	"testing"

	"pioqo/internal/btree"
	"pioqo/internal/buffer"
	"pioqo/internal/device"
	"pioqo/internal/disk"
	"pioqo/internal/sim"
	"pioqo/internal/table"
)

// benchWorld builds a synthetic-backed world sized for benchmarks.
func benchWorld(rows int64, rpp, poolPages int) (*Context, *table.Synthetic, *btree.Index) {
	env := sim.NewEnv(77)
	dev := device.NewSSD(env, device.DefaultSSDConfig())
	m := disk.NewManager(dev)
	tab := table.NewSynthetic(m, "t", rows, rpp, 7)
	idx := btree.NewSynthetic(m, tab, 0, 0)
	ctx := &Context{
		Env:   env,
		CPU:   sim.NewResource(env, "cpu", 8),
		Pool:  buffer.NewPool(env, poolPages),
		Dev:   dev,
		Costs: DefaultCPUCosts(),
	}
	return ctx, tab, idx
}

// BenchmarkFullScan measures host cost per simulated full-table-scan page.
func BenchmarkFullScan(b *testing.B) {
	ctx, tab, idx := benchWorld(33_000, 33, 512)
	spec := Spec{Table: tab, Index: idx, Lo: 0, Hi: 10, Method: FullScan, Degree: 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.Pool.Flush()
		Execute(ctx, spec)
	}
	b.ReportMetric(float64(tab.Pages()), "pages/op")
}

// BenchmarkParallelIndexScan measures a 32-way PIS over ~3000 rows.
func BenchmarkParallelIndexScan(b *testing.B) {
	ctx, tab, idx := benchWorld(100_000, 33, 2048)
	spec := Spec{Table: tab, Index: idx, Lo: 0, Hi: 2999, Method: IndexScan, Degree: 32}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.Pool.Flush()
		Execute(ctx, spec)
	}
	b.ReportMetric(3000, "rows/op")
}

// BenchmarkSortedIndexScan measures the sorted-scan extension on the same
// workload as BenchmarkParallelIndexScan.
func BenchmarkSortedIndexScan(b *testing.B) {
	ctx, tab, idx := benchWorld(100_000, 33, 2048)
	spec := Spec{Table: tab, Index: idx, Lo: 0, Hi: 2999, Method: SortedIndexScan, Degree: 32}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.Pool.Flush()
		Execute(ctx, spec)
	}
}

// BenchmarkPrefetchingIndexScan measures the §3.3 prefetching path.
func BenchmarkPrefetchingIndexScan(b *testing.B) {
	ctx, tab, idx := benchWorld(100_000, 33, 2048)
	spec := Spec{Table: tab, Index: idx, Lo: 0, Hi: 2999, Method: IndexScan,
		Degree: 4, PrefetchPerWorker: 16}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.Pool.Flush()
		Execute(ctx, spec)
	}
}

// benchmarkFullScanHostTime measures host nanoseconds per simulated row on
// a large full scan — the PR-3 batch-kernel headline number. The predicate
// matches ~half the rows so the deliver path is exercised, and every run is
// cold so the page fetches stay on the device path.
func benchmarkFullScanHostTime(b *testing.B, degree int) {
	const rows = 2_000_000
	ctx, tab, idx := benchWorld(rows, 500, 2048)
	spec := Spec{Table: tab, Index: idx, Lo: 0, Hi: rows / 2, Method: FullScan, Degree: degree}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.Pool.Flush()
		Execute(ctx, spec)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/simrow")
}

// BenchmarkFullScanHostTime reports host ns per simulated row, serial and
// with eight contending workers (bench/'s exec.fts_ns_per_simrow and
// exec.pfts8_ns_per_simrow).
func BenchmarkFullScanHostTime(b *testing.B) {
	b.Run("degree1", func(b *testing.B) { benchmarkFullScanHostTime(b, 1) })
	b.Run("degree8", func(b *testing.B) { benchmarkFullScanHostTime(b, 8) })
}

// BenchmarkHashJoinBuild measures the hash-join build phase: a full-scan
// feed whose Emit hook populates the multiplicity table, dominated by the
// per-row delivery path.
func BenchmarkHashJoinBuild(b *testing.B) {
	const rows = 500_000
	ctx, tab, idx := benchWorld(rows, 500, 2048)
	spec := JoinSpec{
		Build: Spec{Table: tab, Index: idx, Lo: 0, Hi: rows - 1, Method: FullScan, Degree: 8},
		Probe: Spec{Table: tab, Index: idx, Lo: 0, Hi: 0, Method: IndexScan, Degree: 1},
		Agg:   AggMax,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.Pool.Flush()
		ExecuteJoin(ctx, spec)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/buildrow")
}
