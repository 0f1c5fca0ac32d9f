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
//   - ActiveWait (AW): one process keeps qd reads in flight, issuing the
//     next read as soon as any of them completes (sim.Any).
//
// AW and MultiThread keep the depth they name on any device, and read alike:
// both issue the next read of one sequence the moment a read completes. A
// driver that waited for its window's oldest read instead would keep less
// wherever the device completes reads out of order — a disk ordering its
// queue by access time passes that read over, and an SSD's channels finish
// out of order (on the HDD, 5 of a window of 8 and 14 of 32).
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
	// largest band's cost by less than this fraction, the depth walk stops
	// and the remaining rows are fitted (see fitStoppedRows) rather than
	// defaulted to slightly above the depth-1 costs as the paper does.
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
	// Model is the full QDTT grid, including any fitted rows.
	Model *cost.QDTT

	// Points holds the actually measured points, in calibration order: the
	// depth walk's, then, when it stopped early, the deepest row's.
	Points []Point

	// TotalReads is the number of page reads issued.
	TotalReads int64

	// SimTime is the virtual time the calibration took — the quantity the
	// §4.6 early stop exists to reduce.
	SimTime sim.Duration

	// StoppedEarly reports whether the §4.6 control tripped.
	StoppedEarly bool

	// CalibratedDepths is the number of depth rows the depth walk measured
	// in full. When it stopped early, the next row had only its largest
	// band measured, the deepest row was measured on a quarter of the read
	// budget, and the rows between them are fitted.
	CalibratedDepths int
}

// deepRowDivisor divides MaxReads into the per-point budget of the deepest
// row, which a stopped depth walk measures to anchor its fit. Deep reads
// are the dearest to simulate on a disk (it ranks the whole queue by access
// time per dispatch), and a quarter of the budget ranked plans at least as
// well as an eighth or the full budget did (DESIGN.md §6).
const deepRowDivisor = 4

// Run calibrates dev on a fresh pass over cfg's grid and returns the model.
// It drives env to completion; use a dedicated environment (or one whose
// other processes have finished).
func Run(env *sim.Env, dev device.Device, cfg Config) Output {
	validate(dev, cfg)
	rng := rand.New(rand.NewSource(cfg.Seed))
	var sc scratch

	nBands, nDepths := len(cfg.Bands), len(cfg.Depths)
	grid := make([][]float64, nDepths)
	for i := range grid {
		grid[i] = make([]float64, nBands)
	}

	out := Output{CalibratedDepths: nDepths}
	start := env.Now()
	point := func(di, bi int, cfg Config) {
		band, depth := cfg.Bands[bi], cfg.Depths[di]
		mean, std, reads := sc.measure(env, dev, band, depth, cfg, rng)
		grid[di][bi] = mean
		out.TotalReads += reads
		out.Points = append(out.Points, Point{
			Band: band, Depth: depth, MicrosPerPage: mean, StdDev: std,
		})
	}

	// §4.6: depths ascending; within each depth, bands largest to smallest;
	// after the largest band of each depth (beyond the first), check the
	// improvement against the previous depth and stop if below threshold.
	for di := 0; di < nDepths && !out.StoppedEarly; di++ {
		for bi := nBands - 1; bi >= 0; bi-- {
			point(di, bi, cfg)
			if bi == nBands-1 && di > 0 && stops(grid[di-1][bi], grid[di][bi], cfg.StopThreshold) {
				out.StoppedEarly = true
				out.CalibratedDepths = di
				break
			}
		}
	}

	if out.StoppedEarly {
		if last := nDepths - 1; out.CalibratedDepths < last {
			deep := deepRowConfig(cfg)
			for bi := nBands - 1; bi >= 0; bi-- {
				point(last, bi, deep)
			}
		}
		fitStoppedRows(grid, cfg.Depths, out.CalibratedDepths)
	}

	out.SimTime = sim.Duration(env.Now() - start)
	out.Model = cost.NewQDTT(cfg.Bands, cfg.Depths, grid)
	return out
}

// stops is §4.6's control: the largest band's cost went from prev at the
// previous depth to cur at this one, an improvement below threshold (or no
// improvement to measure) ends the depth walk. A threshold of zero or less
// never stops it.
func stops(prev, cur, threshold float64) bool {
	return threshold > 0 && (prev <= 0 || (prev-cur)/prev < threshold)
}

// deepRowConfig is cfg at the deepest row's read budget.
func deepRowConfig(cfg Config) Config {
	cfg.MaxReads = max(1, cfg.MaxReads/deepRowDivisor)
	return cfg
}

// fitStoppedRows completes a grid whose depth walk stopped at row trip, of
// which only the largest band was measured, and whose deepest row was then
// measured (when trip is not the deepest row itself).
//
// The paper assigns every unmeasured point "a default value slightly larger
// than the measured costs for queue depth one". On a disk that trips at
// depth 2 that prices every deeper read as a serial one, although the drive
// does gain on narrower bands than the whole device. So instead the
// tripping row is the depth-1 row scaled by the ratio the largest band
// measured there, and each band's rows between it and the deepest row are
// interpolated linearly in log cost over log(depth − 1): a power law in the
// reads a drive can choose from. A drive dispatches its next read the moment
// one completes, before the process that waited on it issues another, so a
// closed loop of d readers — a fleet of d workers, or a calibration window —
// leaves it at most d − 1 queued reads to choose from; at depth 2 that is
// one, which is why a disk's depth walk trips there. Walked in full by d
// closed-loop workers, the way the executor's fleets read, a disk that
// orders its queue by access time cuts a band's cost by a near-constant
// factor per doubling of that choice (DESIGN.md §6). Against a full
// active-wait walk at the same budget the fit prices the full-size HDD's
// bands 256–65 536 9–25 % high at depths 4–16, and a Table-1 heap's band
// within 5 %; index fleets priced from either read alike, so the walk's
// extra reads buy nothing (DESIGN.md §6 gives the cells).
func fitStoppedRows(grid [][]float64, depths []int, trip int) {
	top, last := len(grid[trip])-1, len(grid)-1
	scale := grid[trip][top] / grid[0][top]
	for bi := 0; bi < top; bi++ {
		grid[trip][bi] = grid[0][bi] * scale
	}
	choice := func(di int) float64 { return math.Log(float64(depths[di] - 1)) }
	lo, hi := choice(trip), choice(last)
	for di := trip + 1; di < last; di++ {
		f := (choice(di) - lo) / (hi - lo)
		for bi, c := range grid[trip] {
			grid[di][bi] = c * math.Pow(grid[last][bi]/c, f)
		}
	}
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

// scratch holds the buffers a calibration point builds its reads in. A run,
// or a Sweep cell, keeps one across its points, so that once the buffers
// have grown a point allocates its completions and no buffers.
type scratch struct {
	seq      []int64
	reqs     []request
	window   []*sim.Completion // the reads a GW group holds
	inFlight sim.Any           // the reads the AW window holds
	samples  []float64
	drawn    distinctSet
}

// measure runs cfg.Repetitions repetitions of one calibration point and
// returns the mean and standard deviation of the amortized per-page cost in
// microseconds, plus the reads issued.
func (sc *scratch) measure(env *sim.Env, dev device.Device, band int64, depth int, cfg Config, rng *rand.Rand) (mean, std float64, reads int64) {
	samples := sc.samples[:0]
	for rep := 0; rep < cfg.Repetitions; rep++ {
		seq := sc.sequence(dev, band, cfg.MaxReads, rng)
		reads += int64(len(seq))
		var reqs []request
		if band == 1 {
			reqs = sc.positioned(env, dev, sc.blockRequests(seq))
		} else {
			reqs = sc.pageRequests(seq)
		}
		timed := 0
		for _, r := range reqs {
			timed += r.pages
		}
		elapsed := sc.drive(env, dev, reqs, depth, cfg.Method)
		samples = append(samples, elapsed.Micros()/float64(timed))
	}
	sc.samples = samples
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

// sequence lays out one point's page reads per §4.4: the device is divided
// into band-sized blocks; within each block a non-repeating random page
// order is generated; blocks are visited one at a time. The total number of
// reads is capped at maxReads. The result lives in sc until the next call.
func (sc *scratch) sequence(dev device.Device, band int64, maxReads int, rng *rand.Rand) []int64 {
	devPages := dev.Size() / disk.PageSize
	seq := sc.seq[:0]

	if band >= int64(maxReads) {
		// One block of size band at a random aligned position, maxReads
		// distinct random pages within it.
		maxStart := devPages - band
		start := int64(0)
		if maxStart > 0 {
			start = rng.Int63n(maxStart + 1)
		}
		seq = sc.drawn.sample(seq, band, maxReads, rng)
		for i := range seq {
			seq[i] += start
		}
		sc.seq = seq
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
		// rand.Perm(band)'s loop, run in the block's share of seq with the
		// block's first page added: the same draws, no permutation slice.
		base := blk * band
		n := len(seq)
		seq = append(seq, make([]int64, band)...)
		perm := seq[n:]
		for i := range perm {
			j := rng.Intn(i + 1)
			perm[i] = perm[j]
			perm[j] = base + int64(i)
		}
	}
	sc.seq = seq
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
func (sc *scratch) pageRequests(seq []int64) []request {
	reqs := sc.reqs[:0]
	for _, p := range seq {
		reqs = append(reqs, request{p, 1})
	}
	sc.reqs = reqs
	return reqs
}

// blockRequests reads the band-1 sequence — a run of consecutive pages — the
// way a full scan's readahead does: one request per block of
// disk.BlockPages pages, the same pages in the same order.
func (sc *scratch) blockRequests(seq []int64) []request {
	reqs := sc.reqs[:0]
	for len(seq) > 0 {
		n := min(len(seq), disk.BlockPages)
		reqs = append(reqs, request{seq[0], n})
		seq = seq[n:]
	}
	sc.reqs = reqs
	return reqs
}

// positioned issues the first request of a sequential run on its own and
// returns the rest: that read moves the head (or misses the readahead
// buffer) once per scan, not once per block, so timing it would fold a
// random access into the sequential price. A run of a single request is
// returned whole — there is nothing else to time.
func (sc *scratch) positioned(env *sim.Env, dev device.Device, reqs []request) []request {
	if len(reqs) < 2 {
		return reqs
	}
	sc.drive(env, dev, reqs[:1], 1, ActiveWait)
	return reqs[1:]
}

// distinctSet is an open-addressing hash set of non-negative int64s over a
// slice kept between uses. A zero slot is empty, so values are stored plus
// one.
type distinctSet struct {
	slots []int64
	shift uint // 64 - log2(len(slots))
}

// reset empties the set and sizes it for k values at most half full.
func (s *distinctSet) reset(k int) {
	size, bits := 2, uint(1)
	for size < 2*k {
		size, bits = size<<1, bits+1
	}
	if cap(s.slots) < size {
		s.slots = make([]int64, size)
	} else {
		s.slots = s.slots[:size]
		clear(s.slots)
	}
	s.shift = 64 - bits
}

// add inserts v and reports whether it was already present.
func (s *distinctSet) add(v int64) bool {
	mask := uint64(len(s.slots) - 1)
	for i := (uint64(v) * 0x9E3779B97F4A7C15) >> s.shift; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case 0:
			s.slots[i] = v + 1
			return false
		case v + 1:
			return true
		}
	}
}

// sample appends k distinct values from [0, n) in random order to dst
// (Floyd's sampling, then shuffled) and returns the extended slice; k is
// clamped to n.
func (s *distinctSet) sample(dst []int64, n int64, k int, rng *rand.Rand) []int64 {
	if int64(k) > n {
		k = int(n)
	}
	s.reset(k)
	start := len(dst)
	for j := n - int64(k); j < n; j++ {
		v := rng.Int63n(j + 1)
		if s.add(v) {
			v = j
			s.add(v)
		}
		dst = append(dst, v)
	}
	out := dst[start:]
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return dst
}

// drive issues the requests against dev with the requested queue depth and
// driver, returning the elapsed virtual time.
func (sc *scratch) drive(env *sim.Env, dev device.Device, seq []request, depth int, method Method) sim.Duration {
	start := env.Now()
	read := func(r request) *sim.Completion {
		return dev.ReadAt(r.page*disk.PageSize, r.pages*disk.PageSize)
	}
	window := sc.window[:0]
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
				window = window[:0]
				for _, r := range seq[i:min(i+depth, len(seq))] {
					window = append(window, read(r))
				}
				p.WaitAll(window)
			}
		})
	case ActiveWait:
		inFlight := &sc.inFlight
		env.Go("calib-aw", func(p *sim.Proc) {
			for i, r := range seq {
				if i >= depth {
					p.WaitAny(inFlight)
				}
				inFlight.Add(read(r))
			}
			for inFlight.Len() > 0 {
				p.WaitAny(inFlight)
			}
		})
	default:
		panic("calibrate: unknown method " + method.String())
	}
	env.Run()
	sc.window = window
	return sim.Duration(env.Now() - start)
}
