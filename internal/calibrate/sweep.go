package calibrate

import (
	"math/rand"

	"pioqo/internal/cost"
	"pioqo/internal/device"
	"pioqo/internal/host"
	"pioqo/internal/sim"
)

// EnvFactory builds a fresh simulation environment plus a device in it for
// one calibration point. Sweep calls it once per grid point, so every point
// runs in total isolation.
type EnvFactory func() (*sim.Env, device.Device)

// Sweep calibrates the same grid as Run, but builds a fresh environment and
// device for every (band, depth) point. That makes the points independent:
// they can fan out over a pool of host workers and still produce results
// that are byte-identical to the serial sweep (workers <= 1), because each
// point derives its own random seed from (cfg.Seed, band, depth)
// instead of drawing from one shared stream whose state depends on
// execution order. Use Sweep to characterise a device *model*; use Run to
// calibrate a live device whose state (and clock) must advance through the
// calibration.
//
// SimTime is the summed virtual time of all points — the same quantity the
// §4.6 early stop reduces, just accounted per point.
//
// The §4.6 early stop couples consecutive depths: each depth's largest-band
// cost decides whether the next depth is measured at all. With a
// StopThreshold set, Sweep therefore walks depth rows in order, measuring
// the largest band first and fanning out only the remaining bands of the
// row; when the walk stops, the deepest row fans out and the rest are
// fitted as Run fits them. Without a threshold the whole grid fans out at
// once.
func Sweep(newPoint EnvFactory, cfg Config, workers int) Output {
	{
		_, probe := newPoint()
		validate(probe, cfg)
	}

	nBands, nDepths := len(cfg.Bands), len(cfg.Depths)
	grid := make([][]float64, nDepths)
	for i := range grid {
		grid[i] = make([]float64, nBands)
	}

	out := Output{CalibratedDepths: nDepths}

	type cell struct {
		point   Point
		reads   int64
		elapsed sim.Duration
	}
	// Each cell owns its environment, device, random stream and scratch
	// buffers, so cells can run on parallel host goroutines.
	measureCell := func(di, bi int, cfg Config) cell {
		env, dev := newPoint()
		band, depth := cfg.Bands[bi], cfg.Depths[di]
		rng := rand.New(rand.NewSource(pointSeed(cfg.Seed, band, depth)))
		var sc scratch
		mean, std, reads := sc.measure(env, dev, band, depth, cfg, rng)
		return cell{
			point:   Point{Band: band, Depth: depth, MicrosPerPage: mean, StdDev: std},
			reads:   reads,
			elapsed: sim.Duration(env.Now()),
		}
	}
	record := func(di, bi int, c cell) {
		grid[di][bi] = c.point.MicrosPerPage
		out.TotalReads += c.reads
		out.SimTime += c.elapsed
		out.Points = append(out.Points, c.point)
	}
	// measureRow fans out bands nb-1 down to 0 of row di and records them
	// in that order.
	measureRow := func(di, nb int, cfg Config) {
		cells := make([]cell, nb)
		host.Sweep(workers, nb, func(k int) {
			cells[k] = measureCell(di, nb-1-k, cfg)
		})
		for k, c := range cells {
			record(di, nb-1-k, c)
		}
	}

	if cfg.StopThreshold <= 0 {
		// No depth coupling: the whole grid is one flat fan-out, collected
		// in calibration order (depths ascending, bands largest to smallest).
		cells := make([]cell, nDepths*nBands)
		host.Sweep(workers, len(cells), func(k int) {
			cells[k] = measureCell(k/nBands, nBands-1-k%nBands, cfg)
		})
		for k, c := range cells {
			record(k/nBands, nBands-1-k%nBands, c)
		}
		out.Model = cost.NewQDTT(cfg.Bands, cfg.Depths, grid)
		return out
	}

	for di := 0; di < nDepths; di++ {
		// The largest band decides the early stop, so it is measured first —
		// the same order Run uses.
		record(di, nBands-1, measureCell(di, nBands-1, cfg))
		if di > 0 && stops(grid[di-1][nBands-1], grid[di][nBands-1], cfg.StopThreshold) {
			out.StoppedEarly = true
			out.CalibratedDepths = di
			break
		}
		measureRow(di, nBands-1, cfg)
	}

	if out.StoppedEarly {
		if last := nDepths - 1; out.CalibratedDepths < last {
			measureRow(last, nBands, deepRowConfig(cfg))
		}
		fitStoppedRows(grid, cfg.Depths, out.CalibratedDepths)
	}

	out.Model = cost.NewQDTT(cfg.Bands, cfg.Depths, grid)
	return out
}

// pointSeed derives the RNG seed for one calibration point. SplitMix64-style
// mixing keeps the page sequences of neighbouring points decorrelated while
// staying a pure function of (seed, band, depth) — the property that makes
// the sweep order-independent.
func pointSeed(seed, band int64, depth int) int64 {
	h := uint64(seed)*0x9E3779B97F4A7C15 + uint64(band)*0xBF58476D1CE4E5B9 + uint64(depth)*0x94D049BB133111EB
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return int64(h &^ (1 << 63))
}
