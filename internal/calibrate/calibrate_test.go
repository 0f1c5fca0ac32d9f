package calibrate

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"pioqo/internal/device"
	"pioqo/internal/disk"
	"pioqo/internal/sim"
)

func newSSD(e *sim.Env) device.Device { return device.NewSSD(e, device.DefaultSSDConfig()) }
func newHDD(e *sim.Env) device.Device { return device.NewHDD(e, device.DefaultHDDConfig()) }
func newRAID(e *sim.Env) device.Device {
	return device.NewRAID0(e, 8, 64<<10, device.HDD15KConfig())
}

// smallConfig keeps test calibrations fast: fewer bands and reads.
func smallConfig(dev device.Device, method Method) Config {
	cfg := DefaultConfig(dev)
	cfg.MaxReads = 800
	cfg.Method = method
	devPages := dev.Size() / disk.PageSize
	cfg.Bands = []int64{1, 256, 64 << 10, devPages}
	return cfg
}

func runOn(newDev func(*sim.Env) device.Device, mutate func(*Config)) Output {
	env := sim.NewEnv(7)
	dev := newDev(env)
	cfg := smallConfig(dev, ActiveWait)
	if mutate != nil {
		mutate(&cfg)
	}
	return Run(env, dev, cfg)
}

func TestSSDCostDropsWithDepth(t *testing.T) {
	out := runOn(newSSD, nil)
	band := int64(64 << 10)
	prev := out.Model.PageCost(band, 1)
	for _, qd := range []int{2, 4, 8, 16, 32} {
		cur := out.Model.PageCost(band, qd)
		if cur >= prev {
			t.Errorf("SSD cost at depth %d = %.1f, not below %.1f", qd, cur, prev)
		}
		prev = cur
	}
	gain := out.Model.PageCost(band, 1) / out.Model.PageCost(band, 32)
	if gain < 10 {
		t.Errorf("SSD depth-32 gain = %.1fx, want >= 10x", gain)
	}
}

func TestHDDBandDominatesDepth(t *testing.T) {
	out := runOn(newHDD, func(c *Config) { c.Depths = []int{1, 2, 4, 8} })
	devPages := out.Model.Bands()[len(out.Model.Bands())-1]
	// Band effect at depth 1: sequential (band 1) is orders of magnitude
	// cheaper than full-band random.
	seq := out.Model.PageCost(1, 1)
	rnd := out.Model.PageCost(devPages, 1)
	if rnd < 50*seq {
		t.Errorf("HDD full-band/sequential = %.1fx, want >= 50x", rnd/seq)
	}
	// Depth effect is modest compared to SSD.
	gain := out.Model.PageCost(devPages, 1) / out.Model.PageCost(devPages, 8)
	if gain > 6 {
		t.Errorf("HDD depth-8 gain = %.1fx, want modest (< 6x)", gain)
	}
}

func TestSSDBandEffectMilderThanHDD(t *testing.T) {
	// §4.2: "in many modern solid state drives the band size is still an
	// important parameter ... Nevertheless, this impact is not as serious
	// as what we can see on calibrated models for single-spindle HDDs."
	// Compare the growth of random-read cost from a small band (256 pages)
	// to the whole device.
	ssd := runOn(newSSD, nil)
	hdd := runOn(newHDD, nil)
	rel := func(o Output) float64 {
		bands := o.Model.Bands()
		return o.Model.PageCost(bands[len(bands)-1], 1) / o.Model.PageCost(256, 1)
	}
	ssdRel, hddRel := rel(ssd), rel(hdd)
	if ssdRel < 1.05 {
		t.Errorf("SSD band effect %.2fx, want visible (> 1.05x)", ssdRel)
	}
	if ssdRel > 2 {
		t.Errorf("SSD band effect %.2fx, want mild (< 2x)", ssdRel)
	}
	if hddRel < 1.5*ssdRel {
		t.Errorf("HDD band effect %.2fx not clearly above SSD's %.2fx", hddRel, ssdRel)
	}
}

func TestGWMatchesAWOnSSD(t *testing.T) {
	// Paper Fig. 10: the GW−AW difference on SSD stays within a few
	// microseconds (their maximum is ~7 µs) because SSD latency is flat up
	// to the parallelism limit — the group barrier costs almost nothing.
	gw := runOn(newSSD, func(c *Config) { c.Method = GroupWait })
	aw := runOn(newSSD, func(c *Config) { c.Method = ActiveWait })
	for _, band := range []int64{256, 64 << 10} {
		for _, qd := range []int{4, 16, 32} {
			g, a := gw.Model.PageCost(band, qd), aw.Model.PageCost(band, qd)
			if diff := g - a; diff > 10 || diff < -10 {
				t.Errorf("band %d qd %d: GW %.1f vs AW %.1f (%.1fus apart), want within 10us",
					band, qd, g, a, diff)
			}
		}
	}
}

func TestAWBeatsGWOnRAID(t *testing.T) {
	// Paper Fig. 11: on an 8-spindle RAID, AW measures significantly lower
	// costs than GW because the barrier drains the queue that keeps the
	// spindles busy.
	gw := runOn(newRAID, func(c *Config) { c.Method = GroupWait })
	aw := runOn(newRAID, func(c *Config) { c.Method = ActiveWait })
	band := gw.Model.Bands()[len(gw.Model.Bands())-1]
	g, a := gw.Model.PageCost(band, 16), aw.Model.PageCost(band, 16)
	if a > 0.9*g {
		t.Errorf("RAID qd16: AW %.1f vs GW %.1f; want AW clearly lower", a, g)
	}
}

func TestMultiThreadAgreesWithAW(t *testing.T) {
	mt := runOn(newSSD, func(c *Config) { c.Method = MultiThread })
	aw := runOn(newSSD, func(c *Config) { c.Method = ActiveWait })
	g, a := mt.Model.PageCost(256, 8), aw.Model.PageCost(256, 8)
	if diff := (g - a) / a; diff > 0.25 || diff < -0.25 {
		t.Errorf("MT %.1f vs AW %.1f at qd 8: want close", g, a)
	}
}

// TestActiveWaitKeepsItsDepth measures the device's time-averaged queue
// depth over single active-wait points at a Table-1 heap's band on the HDD:
// reissuing on any completion keeps the window's depth in the device, less
// the drain at the point's end. Reissuing on the window's oldest read kept
// 5.0 of 8 and 14.5 of 32, since a drive that orders its queue by access
// time passes that read over.
func TestActiveWaitKeepsItsDepth(t *testing.T) {
	for _, depth := range []int{8, 32} {
		env := sim.NewEnv(1)
		dev := newHDD(env)
		cfg := Config{Bands: []int64{12 << 10}, Depths: []int{depth}, MaxReads: 3200, Repetitions: 1, Method: ActiveWait, Seed: 1}
		Run(env, dev, cfg)
		mean := dev.Metrics().DepthIntegral() / float64(env.Now())
		t.Logf("window %d: mean queue depth %.2f", depth, mean)
		if min := 0.95 * float64(depth); mean < min || mean > float64(depth) {
			t.Errorf("window %d kept %.2f reads in the device, want %.2f..%d", depth, mean, min, depth)
		}
	}
}

func TestRAIDDepthScalesTowardSpindleCount(t *testing.T) {
	out := runOn(newRAID, nil)
	band := out.Model.Bands()[len(out.Model.Bands())-1]
	gain := out.Model.PageCost(band, 1) / out.Model.PageCost(band, 8)
	if gain < 3 {
		t.Errorf("RAID depth-8 gain = %.1fx, want >= 3x on 8 spindles", gain)
	}
}

func TestEarlyStopOnHDDSavesTime(t *testing.T) {
	full := runOn(newHDD, func(c *Config) { c.StopThreshold = 0 })
	stopped := runOn(newHDD, func(c *Config) { c.StopThreshold = 0.20 })
	if !stopped.StoppedEarly {
		t.Fatal("early stop did not trip on HDD with T=20%")
	}
	if stopped.CalibratedDepths >= len(stopped.Model.Depths()) {
		t.Errorf("calibrated %d depth rows, want fewer than %d",
			stopped.CalibratedDepths, len(stopped.Model.Depths()))
	}
	if stopped.SimTime >= full.SimTime {
		t.Errorf("stopped calibration took %v, full took %v; want savings",
			stopped.SimTime, full.SimTime)
	}
	if stopped.TotalReads >= full.TotalReads {
		t.Errorf("stopped calibration issued %d reads, full %d", stopped.TotalReads, full.TotalReads)
	}
}

func TestEarlyStopDoesNotTripOnSSD(t *testing.T) {
	out := runOn(newSSD, func(c *Config) { c.StopThreshold = 0.20 })
	if out.StoppedEarly {
		t.Error("early stop tripped on SSD, which gains >20% per doubling")
	}
}

func TestStoppedRowsAreFitted(t *testing.T) {
	// When §4.6 trips on the HDD, the deepest row is measured for every band
	// on a quarter of the budget, and the rows between are fitted from it
	// and the tripping row: each fitted cell lies between those two anchors.
	out := runOn(newHDD, func(c *Config) { c.StopThreshold = 0.20 })
	checkFitted(t, out)
	trip := out.CalibratedDepths

	// The walk reads what it read before the fit existed: trip full rows
	// and the tripping row's largest band. The deepest row adds at most a
	// quarter of a full row's budget per band.
	env := sim.NewEnv(1)
	dev := newHDD(env)
	cfg := smallConfig(dev, ActiveWait)
	var sc scratch
	pointReads := func(band int64) int64 {
		return int64(len(sc.sequence(dev, band, cfg.MaxReads, rand.New(rand.NewSource(1)))))
	}
	var walk int64
	for _, b := range cfg.Bands {
		walk += int64(trip) * pointReads(b)
	}
	walk += pointReads(cfg.Bands[len(cfg.Bands)-1])
	if added, budget := out.TotalReads-walk, int64(len(cfg.Bands)*cfg.MaxReads/4); added <= 0 || added > budget {
		t.Errorf("the fit added %d reads to the walk's %d, want 1..%d", added, walk, budget)
	}
}

func TestFittedRowsArePowerLawsInTheChoice(t *testing.T) {
	// Between the tripping row (depth 2: one queued read to choose from)
	// and the deepest (depth 32: 31), each band's log cost is linear in
	// log(depth − 1). The tripping row is depth 1 scaled by the ratio its
	// largest band measured.
	depths := []int{1, 2, 4, 8, 16, 32}
	grid := [][]float64{{100, 200}, {0, 202}, {0, 0}, {0, 0}, {0, 0}, {25, 80}}
	fitStoppedRows(grid, depths, 1)
	for bi, deep := range grid[5] {
		trip := grid[0][bi] * 202 / 200
		for di := 1; di < 5; di++ {
			want := trip * math.Pow(deep/trip, math.Log(float64(depths[di]-1))/math.Log(31))
			if got := grid[di][bi]; math.Abs(got-want) > 1e-9*want {
				t.Errorf("band %d, depth %d: fitted %.4f, want %.4f", bi, depths[di], got, want)
			}
		}
	}
}

func TestSweepFitsAlikeOnAnyWorkerCount(t *testing.T) {
	// Sweep completes a stopped walk with the same fit, its deepest row
	// fanned out over host workers, each cell with its own buffers: the
	// output is the serial sweep's, bit for bit.
	newPoint := func() (*sim.Env, device.Device) {
		env := sim.NewEnv(31)
		return env, newHDD(env)
	}
	_, probe := newPoint()
	cfg := smallConfig(probe, ActiveWait)
	cfg.StopThreshold = 0.20
	serial := Sweep(newPoint, cfg, 1)
	checkFitted(t, serial)
	parallel := Sweep(newPoint, cfg, 4)
	if !slices.Equal(serial.Points, parallel.Points) || serial.TotalReads != parallel.TotalReads ||
		serial.SimTime != parallel.SimTime || serial.CalibratedDepths != parallel.CalibratedDepths {
		t.Fatalf("parallel sweep differs from the serial one")
	}
	for _, b := range cfg.Bands {
		for _, d := range cfg.Depths {
			if s, p := serial.Model.PageCost(b, d), parallel.Model.PageCost(b, d); s != p {
				t.Errorf("band %d depth %d: serial %v, parallel %v", b, d, s, p)
			}
		}
	}
}

// checkFitted checks a calibration whose §4.6 walk stopped before its
// deepest row: every band was measured at the deepest depth, the tripping
// row is depth 1 scaled by the largest band's ratio, and every fitted cell
// lies between the tripping row's and the deepest row's.
func checkFitted(t *testing.T, out Output) {
	t.Helper()
	if !out.StoppedEarly {
		t.Fatal("early stop did not trip on HDD with T=20%")
	}
	bands, depths := out.Model.Bands(), out.Model.Depths()
	trip, last := out.CalibratedDepths, len(depths)-1
	if trip >= last {
		t.Fatalf("walk stopped at row %d of %d: no rows between to fit", trip, last)
	}
	top := bands[len(bands)-1]
	scale := out.Model.PageCost(top, depths[trip]) / out.Model.PageCost(top, depths[0])
	for _, b := range bands {
		if got, want := out.Model.PageCost(b, depths[trip]), scale*out.Model.PageCost(b, depths[0]); math.Abs(got-want) > 1e-9*want {
			t.Errorf("band %d: tripping row %.4fus, want depth 1 scaled by %.4f = %.4fus", b, got, scale, want)
		}
		lo, hi := out.Model.PageCost(b, depths[trip]), out.Model.PageCost(b, depths[last])
		lo, hi = min(lo, hi), max(lo, hi)
		for _, d := range depths[trip+1 : last] {
			if c := out.Model.PageCost(b, d); c < lo || c > hi {
				t.Errorf("band %d depth %d: fitted %.2fus outside its anchors [%.2f, %.2f]", b, d, c, lo, hi)
			}
		}
		i := slices.IndexFunc(out.Points, func(p Point) bool { return p.Band == b && p.Depth == depths[last] })
		if i < 0 {
			t.Errorf("band %d: the deepest row, depth %d, was not measured", b, depths[last])
		} else if got, want := out.Points[i].MicrosPerPage, out.Model.PageCost(b, depths[last]); got != want {
			t.Errorf("band %d: deepest row measured %.2fus, model holds %.2fus", b, got, want)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a := runOn(newSSD, nil)
	b := runOn(newSSD, nil)
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Fatalf("point %d differs: %+v vs %+v", i, a.Points[i], b.Points[i])
		}
	}
}

func TestRepetitionsProduceStdDev(t *testing.T) {
	out := runOn(newSSD, func(c *Config) {
		c.Repetitions = 5
		c.Bands = []int64{256}
		c.Depths = []int{1, 4}
	})
	for _, pt := range out.Points {
		if pt.StdDev < 0 {
			t.Errorf("negative stddev at %+v", pt)
		}
	}
	if len(out.Points) != 2 {
		t.Fatalf("measured %d points, want 2", len(out.Points))
	}
}

func TestSequenceRespectsReadBudget(t *testing.T) {
	env := sim.NewEnv(1)
	dev := newSSD(env)
	rng := rand.New(rand.NewSource(9))
	for _, band := range []int64{1, 7, 100, 3200, 100000, dev.Size() / disk.PageSize} {
		seq := new(scratch).sequence(dev, band, 3200, rng)
		if len(seq) > 3200 {
			t.Errorf("band %d: %d reads, budget 3200", band, len(seq))
		}
		if len(seq) == 0 {
			t.Errorf("band %d: empty sequence", band)
		}
		devPages := dev.Size() / disk.PageSize
		for _, p := range seq {
			if p < 0 || p >= devPages {
				t.Fatalf("band %d: page %d outside device", band, p)
			}
		}
	}
}

func TestSequenceWithinBlockIsNonRepeating(t *testing.T) {
	env := sim.NewEnv(1)
	dev := newSSD(env)
	rng := rand.New(rand.NewSource(3))
	seq := new(scratch).sequence(dev, 100000, 3200, rng) // single-block case
	seen := make(map[int64]bool, len(seq))
	for _, p := range seq {
		if seen[p] {
			t.Fatalf("page %d repeated within block", p)
		}
		seen[p] = true
	}
}

func TestBandOneIsSequential(t *testing.T) {
	// Band 1 is a run of consecutive pages read in blocks, the positioning
	// read left out: at every depth the disk streams, and the price per page
	// is the media rate's — 4 KiB at 110 MB/s is 37.2 µs — not that rate
	// plus a share of a seek.
	out := runOn(newHDD, nil)
	for _, depth := range out.Model.Depths() {
		if seq := out.Model.PageCost(1, depth); seq < 36.5 || seq > 38 {
			t.Errorf("band-1 cost at depth %d = %.2fus, want the media rate's 37.2", depth, seq)
		}
	}
}

func TestBandOneReadsItsSequenceInBlocks(t *testing.T) {
	// The band-1 point draws its page sequence exactly as a page-at-a-time
	// point would — that is what keeps every later point's random numbers,
	// and so its cell, where they were — and reads those same pages, in the
	// same order, a block per request, the last one short.
	env := sim.NewEnv(1)
	dev := newSSD(env)
	var sc scratch
	seq := sc.sequence(dev, 1, 800, rand.New(rand.NewSource(9)))
	if len(seq) != 800 {
		t.Fatalf("band-1 sequence of %d pages, want the budget's 800", len(seq))
	}
	reqs := sc.blockRequests(seq)
	if want := (800 + disk.BlockPages - 1) / disk.BlockPages; len(reqs) != want {
		t.Fatalf("%d requests, want %d", len(reqs), want)
	}
	next := seq[0]
	for i, r := range reqs {
		if r.page != next || (r.pages != disk.BlockPages && i != len(reqs)-1) {
			t.Fatalf("request %d reads %d pages at %d, want a block at %d", i, r.pages, r.page, next)
		}
		next += int64(r.pages)
	}
	if next != seq[len(seq)-1]+1 {
		t.Errorf("requests end at page %d, the sequence at %d", next-1, seq[len(seq)-1])
	}
	// The positioning read is the first block, and it is not timed.
	if rest := sc.positioned(env, dev, reqs); len(rest) != len(reqs)-1 || rest[0] != reqs[1] {
		t.Errorf("positioning left %d of %d requests", len(rest), len(reqs))
	}
	if rest := sc.positioned(env, dev, reqs[:1]); len(rest) != 1 {
		t.Errorf("a run of one request has nothing but that request to time; got %d", len(rest))
	}
}

func TestSampleDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var set distinctSet
	got := set.sample(nil, 10, 10, rng)
	if len(got) != 10 {
		t.Fatalf("got %d values, want 10", len(got))
	}
	seen := make(map[int64]bool)
	for _, v := range got {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("bad sample %v", got)
		}
		seen[v] = true
	}
	if got := set.sample(nil, 5, 100, rng); len(got) != 5 {
		t.Errorf("oversized k: got %d values, want clamp to 5", len(got))
	}
}

// floydWithMap is the map-based Floyd sampler the open-addressing set
// replaced, kept as the reference its draws and values must match.
func floydWithMap(n int64, k int, rng *rand.Rand) []int64 {
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

func TestSampleMatchesMapFloyd(t *testing.T) {
	// One set reused over every case, as a calibration run reuses it, and
	// appended to a non-empty prefix, as a sequence is built.
	draw := rand.New(rand.NewSource(11))
	var set distinctSet
	prefix := []int64{-7, -8}
	for c := 0; c < 400; c++ {
		n := 1 + draw.Int63n(1<<uint(1+draw.Intn(24)))
		k := 1 + draw.Intn(4000)
		seed := draw.Int63()
		rng, refRNG := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		got, want := set.sample(slices.Clone(prefix), n, k, rng), floydWithMap(n, k, refRNG)
		if !slices.Equal(got[:len(prefix)], prefix) || !slices.Equal(got[len(prefix):], want) {
			t.Fatalf("n=%d k=%d seed=%d: sample differs from the map-based Floyd", n, k, seed)
		}
		// Same draws: the two streams are in step afterwards.
		if rng.Int63() != refRNG.Int63() {
			t.Fatalf("n=%d k=%d seed=%d: random streams diverged after sampling", n, k, seed)
		}
	}
}

func TestSequenceMatchesPerm(t *testing.T) {
	// Multi-block sequences take rand.Perm's draws into a reused buffer:
	// same pages, same order, same stream state as rand.Perm per block.
	env := sim.NewEnv(1)
	dev := newHDD(env)
	var sc scratch
	for _, band := range []int64{1, 3, 16, 256, 1000} {
		for _, seed := range []int64{1, 2, 3} {
			rng, ref := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			got := sc.sequence(dev, band, 3200, rng)
			devPages := dev.Size() / disk.PageSize
			numBlocks := min(int64(3200)/band, devPages/band)
			first := int64(0)
			if slack := devPages/band - numBlocks; slack > 0 {
				first = ref.Int63n(slack + 1)
			}
			var want []int64
			for blk := first; blk < first+numBlocks; blk++ {
				for _, p := range ref.Perm(int(band)) {
					want = append(want, blk*band+int64(p))
				}
			}
			if !slices.Equal(got, want) || rng.Int63() != ref.Int63() {
				t.Fatalf("band %d seed %d: sequence differs from rand.Perm's", band, seed)
			}
		}
	}
}

func TestPointAllocatesOnlyCompletions(t *testing.T) {
	// Once a run's buffers have grown, a calibration point allocates one
	// completion per request plus a constant for its driver process — no
	// sequence, request, window or sampler buffer.
	for _, tc := range []struct {
		name   string
		newDev func(*sim.Env) device.Device
		band   int64
		depth  int
	}{
		{"hdd-random-qd32", newHDD, 64 << 10, 32},
		{"hdd-sequential", newHDD, 1, 8},
		{"ssd-block-qd4", newSSD, 256, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := sim.NewEnv(1)
			dev := tc.newDev(env)
			cfg := smallConfig(dev, ActiveWait)
			rng := rand.New(rand.NewSource(1))
			var sc scratch
			_, _, reads := sc.measure(env, dev, tc.band, tc.depth, cfg, rng) // grow the buffers
			requests := reads
			if tc.band == 1 {
				requests = (reads + disk.BlockPages - 1) / disk.BlockPages
			}
			allocs := testing.AllocsPerRun(5, func() {
				sc.measure(env, dev, tc.band, tc.depth, cfg, rng)
			})
			// A driver run (the band-1 point has two: its positioning read
			// and the timed ones) costs about five: the process, its body
			// and what the body captures. The race detector's own
			// allocations void the bound.
			if limit := float64(requests) + 12; allocs > limit && !raceEnabled {
				t.Errorf("%.0f allocations for %d requests, want at most one per request plus 12", allocs, requests)
			}
		})
	}
}

func TestValidationPanics(t *testing.T) {
	env := sim.NewEnv(1)
	dev := newSSD(env)
	bad := []func(*Config){
		func(c *Config) { c.Bands = nil },
		func(c *Config) { c.Depths = nil },
		func(c *Config) { c.MaxReads = 0 },
		func(c *Config) { c.Repetitions = 0 },
		func(c *Config) { c.Bands = []int64{dev.Size()} }, // pages, not bytes
	}
	for i, mutate := range bad {
		cfg := smallConfig(dev, ActiveWait)
		mutate(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			Run(env, dev, cfg)
		}()
	}
}
