// Package calibrate measures a storage device and produces the QDTT cost
// model, implementing §4.4–§4.6 of the paper.
//
// A calibration point (band b, queue depth qd) measures the amortized cost
// of one random page read issued within a band of b pages while the device
// queue holds qd outstanding requests. Band 1 is the sequential band, and it
// is measured in the shape sequential I/O is issued in: consecutive block
// reads of disk.BlockPages pages, qd of them outstanding, priced per page at
// steady state. Three drivers generate the queue depth:
//
//   - MultiThread: qd worker processes each issuing synchronous reads;
//   - GroupWait (GW): one process issues qd asynchronous reads, waits for
//     the whole group, then issues the next group;
//   - ActiveWait (AW): one process keeps a circular window of qd reads in
//     flight, reissuing as each oldest completes.
//
// On devices whose latency stays flat up to the parallelism limit (SSDs) GW
// and AW agree; on spinning media, queueing raises latency, GW's barrier
// drains the queue, and AW measures lower costs — the paper's Figs. 9–11.
// Nothing here special-cases device types; the divergence emerges from the
// device models.
package calibrate

import (
	"fmt"
	"math"
	"math/rand"

	"pioqo/internal/cost"
	"pioqo/internal/device"
	"pioqo/internal/disk"
	"pioqo/internal/sim"
)

// Method selects the queue-depth generation driver.
type Method int

const (
	// ActiveWait is the paper's method of choice for a general calibrator.
	ActiveWait Method = iota
	// GroupWait issues groups of qd reads with a barrier between groups.
	GroupWait
	// MultiThread uses qd synchronous reader processes.
	MultiThread
)

func (m Method) String() string {
	switch m {
	case ActiveWait:
		return "AW"
	case GroupWait:
		return "GW"
	case MultiThread:
		return "MT"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Config controls a calibration run.
type Config struct {
	// Bands is the ascending band-size grid, in pages.
	Bands []int64

	// Depths is the ascending queue-depth grid, conventionally the
	// exponential 1, 2, 4, 8, 16, 32 of §4.5.
	Depths []int

	// MaxReads is M, the page-read budget per calibration point (§4.4).
	MaxReads int

	// Repetitions averages each point over this many repetitions.
	Repetitions int

	// Method is the queue-depth driver.
	Method Method

	// StopThreshold is T of §4.6: if raising the queue depth improves the
	// largest band's cost by less than this fraction, calibration stops and
	// the remaining points default to slightly above the depth-1 costs.
	// Zero disables early stopping.
	StopThreshold float64

	// Seed drives the random page sequences.
	Seed int64
}

// DefaultConfig returns the paper's grid for a device: exponential depths 1
// to 32, M = 3200, and band sizes from 1 page up to the full device.
func DefaultConfig(dev device.Device) Config {
	devPages := dev.Size() / disk.PageSize
	var bands []int64
	for _, b := range []int64{1, 16, 256, 4 << 10, 64 << 10, 1 << 20, 16 << 20} {
		if b < devPages {
			bands = append(bands, b)
		}
	}
	bands = append(bands, devPages)
	return Config{
		Bands:       bands,
		Depths:      []int{1, 2, 4, 8, 16, 32},
		MaxReads:    3200,
		Repetitions: 1,
		Method:      ActiveWait,
		Seed:        1,
	}
}

// Point is one measured calibration point.
type Point struct {
	Band          int64
	Depth         int
	MicrosPerPage float64
	StdDev        float64 // across repetitions; 0 when Repetitions == 1
}

// Output is the result of a calibration run.
type Output struct {
	// Model is the full QDTT grid, including any defaulted rows.
	Model *cost.QDTT

	// Points holds the actually measured points, in calibration order.
	Points []Point

	// TotalReads is the number of page reads issued.
	TotalReads int64

	// SimTime is the virtual time the calibration took — the quantity the
	// §4.6 early stop exists to reduce.
	SimTime sim.Duration

	// StoppedEarly reports whether the §4.6 control tripped.
	StoppedEarly bool

	// CalibratedDepths is the number of depth rows actually measured; rows
	// beyond it were filled with the depth-1 default.
	CalibratedDepths int
}

// Run calibrates dev on a fresh pass over cfg's grid and returns the model.
// It drives env to completion; use a dedicated environment (or one whose
// other processes have finished).
func Run(env *sim.Env, dev device.Device, cfg Config) Output {
	validate(dev, cfg)
	rng := rand.New(rand.NewSource(cfg.Seed))

	nBands, nDepths := len(cfg.Bands), len(cfg.Depths)
	grid := make([][]float64, nDepths)
	for i := range grid {
		grid[i] = make([]float64, nBands)
	}

	out := Output{CalibratedDepths: nDepths}
	start := env.Now()

	// §4.6: depths ascending; within each depth, bands largest to smallest;
	// after the largest band of each depth (beyond the first), check the
	// improvement against the previous depth and stop if below threshold.
	stopped := false
	for di := 0; di < nDepths && !stopped; di++ {
		for bi := nBands - 1; bi >= 0; bi-- {
			band := cfg.Bands[bi]
			mean, std, reads := measure(env, dev, band, cfg.Depths[di], cfg, rng)
			grid[di][bi] = mean
			out.TotalReads += reads
			out.Points = append(out.Points, Point{
				Band: band, Depth: cfg.Depths[di], MicrosPerPage: mean, StdDev: std,
			})
			if bi == nBands-1 && di > 0 && cfg.StopThreshold > 0 {
				prev := grid[di-1][bi]
				if prev <= 0 || (prev-mean)/prev < cfg.StopThreshold {
					stopped = true
					out.StoppedEarly = true
					out.CalibratedDepths = di // rows di.. are defaulted
					break
				}
			}
		}
	}

	if out.StoppedEarly {
		// "A default value slightly larger than the measured costs for
		// queue depth one is assigned to the remaining calibration points."
		for di := out.CalibratedDepths; di < nDepths; di++ {
			for bi := range cfg.Bands {
				grid[di][bi] = grid[0][bi] * 1.05
			}
		}
	}

	out.SimTime = sim.Duration(env.Now() - start)
	out.Model = cost.NewQDTT(cfg.Bands, cfg.Depths, grid)
	return out
}

func validate(dev device.Device, cfg Config) {
	devPages := dev.Size() / disk.PageSize
	if len(cfg.Bands) == 0 || len(cfg.Depths) == 0 {
		panic("calibrate: empty grid")
	}
	if cfg.MaxReads <= 0 {
		panic("calibrate: MaxReads must be positive")
	}
	if cfg.Repetitions <= 0 {
		panic("calibrate: Repetitions must be positive")
	}
	for _, b := range cfg.Bands {
		if b <= 0 || b > devPages {
			panic(fmt.Sprintf("calibrate: band %d pages outside device of %d pages", b, devPages))
		}
	}
}

// measure runs cfg.Repetitions repetitions of one calibration point and
// returns the mean and standard deviation of the amortized per-page cost in
// microseconds, plus the reads issued.
func measure(env *sim.Env, dev device.Device, band int64, depth int, cfg Config, rng *rand.Rand) (mean, std float64, reads int64) {
	samples := make([]float64, cfg.Repetitions)
	for rep := 0; rep < cfg.Repetitions; rep++ {
		seq := buildSequence(dev, band, cfg.MaxReads, rng)
		reads += int64(len(seq))
		reqs := pageRequests(seq)
		if band == 1 {
			reqs = positioned(env, dev, blockRequests(seq))
		}
		timed := 0
		for _, r := range reqs {
			timed += r.pages
		}
		elapsed := drive(env, dev, reqs, depth, cfg.Method)
		samples[rep] = elapsed.Micros() / float64(timed)
	}
	for _, s := range samples {
		mean += s
	}
	mean /= float64(len(samples))
	if len(samples) > 1 {
		var ss float64
		for _, s := range samples {
			ss += (s - mean) * (s - mean)
		}
		std = math.Sqrt(ss / float64(len(samples)))
	}
	return mean, std, reads
}

// buildSequence lays out one point's page reads per §4.4: the device is
// divided into band-sized blocks; within each block a non-repeating random
// page order is generated; blocks are visited one at a time. The total
// number of reads is capped at maxReads.
func buildSequence(dev device.Device, band int64, maxReads int, rng *rand.Rand) []int64 {
	devPages := dev.Size() / disk.PageSize
	var seq []int64

	if band >= int64(maxReads) {
		// One block of size band at a random aligned position, maxReads
		// distinct random pages within it.
		maxStart := devPages - band
		start := int64(0)
		if maxStart > 0 {
			start = rng.Int63n(maxStart + 1)
		}
		for _, p := range sampleDistinct(band, maxReads, rng) {
			seq = append(seq, start+p)
		}
		return seq
	}

	// Multiple blocks of size band, visited consecutively from a random
	// starting block; each contributes all its pages in random order. With
	// band 1 this degenerates to a pure sequential run — which is exactly
	// the DTT convention that band size 1 means sequential I/O; measure
	// reads that run in blocks.
	numBlocks := int64(maxReads) / band
	if avail := devPages / band; numBlocks > avail {
		numBlocks = avail
	}
	if numBlocks < 1 {
		numBlocks = 1
	}
	firstBlock := int64(0)
	if slack := devPages/band - numBlocks; slack > 0 {
		firstBlock = rng.Int63n(slack + 1)
	}
	for blk := firstBlock; blk < firstBlock+numBlocks; blk++ {
		base := blk * band
		for _, p := range rng.Perm(int(band)) {
			seq = append(seq, base+int64(p))
		}
	}
	return seq
}

// request is one device read of a calibration point: pages consecutive
// pages starting at page.
type request struct {
	page  int64
	pages int
}

// pageRequests reads a random-band sequence the way an index scan fetches
// rows: one page per request.
func pageRequests(seq []int64) []request {
	reqs := make([]request, len(seq))
	for i, p := range seq {
		reqs[i] = request{p, 1}
	}
	return reqs
}

// blockRequests reads the band-1 sequence — a run of consecutive pages — the
// way a full scan's readahead does: one request per block of
// disk.BlockPages pages, the same pages in the same order.
func blockRequests(seq []int64) []request {
	var reqs []request
	for len(seq) > 0 {
		n := min(len(seq), disk.BlockPages)
		reqs = append(reqs, request{seq[0], n})
		seq = seq[n:]
	}
	return reqs
}

// positioned issues the first request of a sequential run on its own and
// returns the rest: that read moves the head (or misses the readahead
// buffer) once per scan, not once per block, so timing it would fold a
// random access into the sequential price. A run of a single request is
// returned whole — there is nothing else to time.
func positioned(env *sim.Env, dev device.Device, reqs []request) []request {
	if len(reqs) < 2 {
		return reqs
	}
	drive(env, dev, reqs[:1], 1, ActiveWait)
	return reqs[1:]
}

// sampleDistinct returns k distinct values from [0, n) in random order
// (Floyd's sampling; order shuffled).
func sampleDistinct(n int64, k int, rng *rand.Rand) []int64 {
	if int64(k) > n {
		k = int(n)
	}
	chosen := make(map[int64]struct{}, k)
	out := make([]int64, 0, k)
	for j := n - int64(k); j < n; j++ {
		v := rng.Int63n(j + 1)
		if _, dup := chosen[v]; dup {
			v = j
		}
		chosen[v] = struct{}{}
		out = append(out, v)
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// drive issues the requests against dev with the requested queue depth and
// driver, returning the elapsed virtual time.
func drive(env *sim.Env, dev device.Device, seq []request, depth int, method Method) sim.Duration {
	start := env.Now()
	read := func(r request) *sim.Completion {
		return dev.ReadAt(r.page*disk.PageSize, r.pages*disk.PageSize)
	}
	switch method {
	case MultiThread:
		next := 0
		for w := 0; w < depth; w++ {
			env.Go(fmt.Sprintf("calib-mt%d", w), func(p *sim.Proc) {
				for {
					i := next
					if i >= len(seq) {
						return
					}
					next = i + 1
					p.Wait(read(seq[i]))
				}
			})
		}
	case GroupWait:
		env.Go("calib-gw", func(p *sim.Proc) {
			for i := 0; i < len(seq); i += depth {
				end := i + depth
				if end > len(seq) {
					end = len(seq)
				}
				group := make([]*sim.Completion, 0, depth)
				for _, r := range seq[i:end] {
					group = append(group, read(r))
				}
				p.WaitAll(group)
			}
		})
	case ActiveWait:
		env.Go("calib-aw", func(p *sim.Proc) {
			window := make([]*sim.Completion, 0, depth)
			for i, r := range seq {
				if i >= depth {
					p.Wait(window[i-depth])
					window[i-depth] = nil
				}
				window = append(window, read(r))
			}
			for _, c := range window {
				if c != nil {
					p.Wait(c)
				}
			}
		})
	default:
		panic("calibrate: unknown method " + method.String())
	}
	env.Run()
	return sim.Duration(env.Now() - start)
}
