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

// The scans bench/ times per simulated row (exec.*_ns_per_simrow,
// exec.hashjoin_build_ns_per_row) are not repeated here; these two time the
// index-scan variants no probe runs.

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

// BenchmarkSortedIndexScan measures the sorted-scan extension on a 32-way
// scan of ~3000 rows, the shape bench/ times as exec.pis32_ns_per_simrow.
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
