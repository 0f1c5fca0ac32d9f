// Package experiments regenerates every table and figure in the paper's
// evaluation. Each experiment is a function returning typed rows; the
// cmd/pioqo-bench tool prints them as TSV, the root bench_test.go exposes
// one testing.B benchmark per experiment, and EXPERIMENTS.md records the
// outcomes against the paper's numbers.
//
// Absolute times are outputs of the simulated devices; the reproduction
// target is the paper's shape — which access method wins where, where the
// break-even selectivities fall, and the rough factors between curves.
package experiments

import (
	"math"

	"pioqo/internal/calibrate"
	"pioqo/internal/cost"
	"pioqo/internal/disk"
	"pioqo/internal/obs"
	"pioqo/internal/sim"
	"pioqo/internal/workload"
)

// Scale sizes the experiments. The paper's tables have ~2.4 M pages against
// a 16 K-frame pool, about 146 : 1. The defaults keep the table well above
// the pool at a size that sweeps quickly, but not that ratio: DefaultScale
// is 12 288 pages against 1 024 frames (12 : 1), QuickScale 2 048 against
// 256 (8 : 1).
type Scale struct {
	// Pages is the heap size of each experiment table, in pages.
	Pages int64

	// PoolPages is the buffer pool size in frames ("a very small memory
	// buffer pool ... to factor out the impact of memory", §3.1).
	PoolPages int

	// CalibReads is M, the per-point calibration read budget.
	CalibReads int

	// Reps is the number of calibration repetitions for the GW/AW
	// comparison experiments (the paper uses 50).
	Reps int

	// SelPoints is the number of selectivity grid points per sweep.
	SelPoints int

	// Cores is the number of logical CPU cores (the paper's machine has 8).
	Cores int

	// Parallel is the number of host worker goroutines a sweep fans its
	// grid points out over. Every grid point builds its own sim.Env, so
	// points share no state and the collected output is byte-identical for
	// any worker count. 0 means GOMAXPROCS (the default: parallel on);
	// 1 restores the fully serial sweep.
	Parallel int

	// Trace, when non-nil, collects virtual-time spans from every system an
	// experiment builds (one tracer process lane per system), for Chrome
	// trace_event export via Trace.WriteChrome. Tracing forces the serial
	// sweep so span lanes are appended in deterministic order.
	Trace *obs.Trace
}

// DefaultScale is the full-size configuration used by cmd/pioqo-bench.
func DefaultScale() Scale {
	return Scale{
		Pages:      12288,
		PoolPages:  1024,
		CalibReads: 3200,
		Reps:       10,
		SelPoints:  9,
		Cores:      8,
	}
}

// QuickScale is a reduced configuration for unit tests and testing.B
// benchmarks.
func QuickScale() Scale {
	return Scale{
		Pages:      2048,
		PoolPages:  256,
		CalibReads: 640,
		Reps:       3,
		SelPoints:  5,
		Cores:      8,
	}
}

// system builds a synthetic-backed system sized by the scale for one
// Table 1 configuration.
func (sc Scale) system(cfg workload.Config) *workload.System {
	return workload.New(workload.Options{
		Device:      cfg.Device,
		Rows:        sc.Pages * int64(cfg.RowsPerPage),
		RowsPerPage: cfg.RowsPerPage,
		PoolPages:   sc.PoolPages,
		Cores:       sc.Cores,
		Synthetic:   true,
		Trace:       sc.Trace,
	})
}

// calibConfig returns the calibration grid for a system's device, sized by
// the scale, with the ActiveWait driver the paper recommends.
func (sc Scale) calibConfig(s *workload.System) calibrate.Config {
	cfg := calibrate.DefaultConfig(s.Dev)
	cfg.MaxReads = sc.CalibReads
	return cfg
}

// calibrated calibrates the system's device in place (device time advances;
// the paper likewise calibrates on the live machine) and returns the model.
func (sc Scale) calibrated(s *workload.System) *cost.QDTT {
	return calibrate.Run(s.Env, s.Dev, sc.calibConfig(s)).Model
}

// selGrid returns n geometrically spaced selectivities in [lo, hi].
func selGrid(lo, hi float64, n int) []float64 {
	if n < 2 {
		return []float64{lo}
	}
	out := make([]float64, n)
	ratio := hi / lo
	for i := range out {
		out[i] = lo * math.Pow(ratio, float64(i)/float64(n-1))
	}
	return out
}

// devicePages reports a device's capacity in pages.
func devicePages(s *workload.System) int64 {
	return s.Dev.Size() / disk.PageSize
}

// microsToDuration converts model microseconds to a sim duration.
func microsToDuration(us float64) sim.Duration {
	return sim.Duration(us * float64(sim.Microsecond))
}
