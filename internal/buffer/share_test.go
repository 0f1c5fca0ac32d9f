package buffer

import (
	"fmt"
	"testing"

	"pioqo/internal/device"
	"pioqo/internal/disk"
	"pioqo/internal/obs"
	"pioqo/internal/sim"
)

// collectLap attaches a consumer and rides one full lap, returning the
// pages in delivery order. Errors surface via t.Error (procs are not the
// test goroutine).
func collectLap(t *testing.T, p *sim.Proc, c *ScanConsumer) []int64 {
	t.Helper()
	var got []int64
	for {
		run, ok, err := c.Next(p)
		if err != nil {
			t.Errorf("consumer %d: unexpected device fault: %v", c.qid, err)
			return got
		}
		if !ok {
			return got
		}
		for i := 0; i < run.Count; i++ {
			got = append(got, run.Start+int64(i))
		}
		c.Consumed()
	}
}

// exactlyOnce asserts pages holds every page in [0, n) exactly once.
func exactlyOnce(t *testing.T, who string, pages []int64, n int64) {
	t.Helper()
	seen := make(map[int64]int, n)
	for _, pg := range pages {
		seen[pg]++
	}
	if int64(len(seen)) != n || int64(len(pages)) != n {
		t.Errorf("%s: saw %d pages (%d distinct), want %d", who, len(pages), len(seen), n)
	}
	for pg, k := range seen {
		if k != 1 {
			t.Errorf("%s: page %d delivered %d times", who, pg, k)
		}
	}
}

func TestShareSingleConsumerLap(t *testing.T) {
	const pages = 100
	w := newWorld(t, 64)
	sh := NewShares(w.env, w.pool, ShareConfig{BlockPages: 8})
	var got []int64
	w.run(func(p *sim.Proc) {
		got = collectLap(t, p, sh.Attach(1, w.file, pages))
	})
	exactlyOnce(t, "sole consumer", got, pages)
	if got[0] != 0 {
		t.Errorf("fresh share started at page %d, want 0", got[0])
	}
	if w.pool.Pinned() != 0 {
		t.Errorf("pin ledger holds %d after the lap, want 0", w.pool.Pinned())
	}
	if sh.Live() != 0 {
		t.Errorf("%d consumers still attached after the lap", sh.Live())
	}
}

func TestShareMidLapAttachSeesEveryPageOnce(t *testing.T) {
	const pages = 400
	w := newWorld(t, 64)
	sh := NewShares(w.env, w.pool, ShareConfig{BlockPages: 8})
	var first, second []int64
	w.env.Go("first", func(p *sim.Proc) {
		first = collectLap(t, p, sh.Attach(1, w.file, pages))
	})
	w.env.Go("second", func(p *sim.Proc) {
		// Join after the producer has circulated for a while: the second
		// consumer attaches mid-lap and must still see one full lap.
		p.Sleep(2 * sim.Millisecond)
		second = collectLap(t, p, sh.Attach(2, w.file, pages))
	})
	w.env.Run()
	exactlyOnce(t, "first", first, pages)
	exactlyOnce(t, "second", second, pages)
	if len(second) == 0 || second[0] == 0 {
		t.Errorf("second consumer joined at page %v, want a mid-lap join point", second[:1])
	}
	if w.pool.Pinned() != 0 {
		t.Errorf("pin ledger holds %d after both laps, want 0", w.pool.Pinned())
	}
}

func TestShareProducerExitsIdleAndResumesPosition(t *testing.T) {
	const pages = 96 // 12 blocks of 8
	w := newWorld(t, 64)
	sh := NewShares(w.env, w.pool, ShareConfig{BlockPages: 8})
	// First rider takes three blocks and bails; env.Run returning at all
	// proves the producer exited rather than parking forever (the kernel
	// panics on a deadlocked process).
	w.run(func(p *sim.Proc) {
		c := sh.Attach(1, w.file, pages)
		for i := 0; i < 3; i++ {
			if _, ok, err := c.Next(p); !ok || err != nil {
				t.Errorf("block %d: ok=%v err=%v", i, ok, err)
				return
			}
			c.Consumed()
		}
		c.Detach()
	})
	share := sh.scans[w.file.ID()]
	if share == nil || share.running {
		t.Fatalf("share missing or producer still marked running after idle")
	}
	if share.pos == 0 {
		t.Fatalf("producer position reset to 0; want it parked mid-lap")
	}
	resumed := share.pos
	// Second rider restarts the producer lazily and must join where the
	// last circulation stopped, then still see every page exactly once.
	var got []int64
	w.run(func(p *sim.Proc) {
		got = collectLap(t, p, sh.Attach(2, w.file, pages))
	})
	exactlyOnce(t, "resumed consumer", got, pages)
	if want := resumed * 8; got[0] != want {
		t.Errorf("resumed lap started at page %d, want %d (block %d)", got[0], want, resumed)
	}
	if w.pool.Pinned() != 0 {
		t.Errorf("pin ledger holds %d, want 0", w.pool.Pinned())
	}
}

// countingDevice counts the read requests that reach the device and the
// most it ever had in flight at once.
type countingDevice struct {
	device.Device
	reads, inFlight, peak int
}

func (d *countingDevice) ReadAt(offset int64, length int) *sim.Completion {
	d.reads++
	d.inFlight++
	d.peak = max(d.peak, d.inFlight)
	c := d.Device.ReadAt(offset, length)
	c.OnFire(func() { d.inFlight-- })
	return c
}

// heldLease is a DepthLease the test grants by hand.
type heldLease struct {
	demand, depth int
	grant         *sim.Completion
	released      bool
}

func (l *heldLease) Await(p *sim.Proc) { p.Wait(l.grant) }
func (l *heldLease) Budget() int       { return l.depth }
func (l *heldLease) Release()          { l.released = true }

// TestShareProducerLeasesItsDepth installs a leasing hook and grants the
// producer two credits 5 ms after its rider attaches. The producer asks for
// its readahead plus the block it delivers, reads nothing before the grant,
// never has more than two reads in flight once granted (one block ahead),
// and returns the lease when its rider leaves.
func TestShareProducerLeasesItsDepth(t *testing.T) {
	const pages, blockPages = 96, 8
	env := sim.NewEnv(1)
	dev := &countingDevice{Device: device.NewSSD(env, device.DefaultSSDConfig())}
	file := disk.NewManager(dev).MustAllocate("t", pages)
	pool := NewPool(env, 256)
	sh := NewShares(env, pool, ShareConfig{BlockPages: blockPages})
	var leases []*heldLease
	sh.SetLeaser(func(demand int) DepthLease {
		l := &heldLease{demand: demand, depth: 2, grant: sim.NewCompletion(env)}
		env.Schedule(5*sim.Millisecond, l.grant.Fire)
		leases = append(leases, l)
		return l
	})
	env.Go("rider", func(p *sim.Proc) {
		exactlyOnce(t, "rider", collectLap(t, p, sh.Attach(1, file, pages)), pages)
	})
	env.Go("watch", func(p *sim.Proc) {
		p.Sleep(5*sim.Millisecond - 1)
		if dev.reads != 0 {
			t.Errorf("%d reads before the producer's grant, want none", dev.reads)
		}
	})
	env.Run()
	if len(leases) != 1 {
		t.Fatalf("the producer took %d leases, want 1", len(leases))
	}
	// Unleased, the producer reads ahead producerDepth, 4 blocks.
	if l := leases[0]; l.demand != 5 || !l.released {
		t.Errorf("lease demand %d, released %v; want 5, released", l.demand, l.released)
	}
	if dev.peak > 2 {
		t.Errorf("%d reads in flight at once under a two-credit grant", dev.peak)
	}
}

// TestShareReadsEveryBlockWhole counts a lap's device reads: one per block,
// on a fresh share and again after an idle restart, because the block a
// (re)started producer delivers first is read in one piece like the
// readahead past it, not a page at a time. The pool holds the whole file,
// so a lap's wrap-around readahead finds its blocks resident.
func TestShareReadsEveryBlockWhole(t *testing.T) {
	const pages, blockPages = 96, 8
	const blocks = pages / blockPages
	env := sim.NewEnv(1)
	dev := &countingDevice{Device: device.NewSSD(env, device.DefaultSSDConfig())}
	file := disk.NewManager(dev).MustAllocate("t", pages)
	pool := NewPool(env, 256)
	sh := NewShares(env, pool, ShareConfig{BlockPages: blockPages})
	lap := func(who string, qid int64) {
		env.Go(who, func(p *sim.Proc) {
			exactlyOnce(t, who, collectLap(t, p, sh.Attach(qid, file, pages)), pages)
		})
		env.Run()
	}

	lap("fresh lap", 1)
	if dev.reads != blocks {
		t.Errorf("a fresh share's lap issued %d reads, want %d, one per block", dev.reads, blocks)
	}

	// Ride three blocks and leave, so the producer exits mid-lap; flush, so
	// its next first block must come from the device again.
	env.Go("partial", func(p *sim.Proc) {
		c := sh.Attach(2, file, pages)
		for i := 0; i < 3; i++ {
			if _, ok, err := c.Next(p); !ok || err != nil {
				t.Errorf("block %d: ok=%v err=%v", i, ok, err)
				return
			}
			c.Consumed()
		}
		c.Detach()
	})
	env.Run()
	if sh.scans[file.ID()].running {
		t.Fatal("producer still running after its last rider left")
	}
	pool.Flush()
	dev.reads = 0
	lap("restarted lap", 3)
	if dev.reads != blocks {
		t.Errorf("a lap after an idle restart issued %d reads, want %d, one per block", dev.reads, blocks)
	}
	if pool.Pinned() != 0 || sh.Live() != 0 {
		t.Errorf("%d pins and %d consumers left, want 0 and 0", pool.Pinned(), sh.Live())
	}
}

func TestShareSlowestConsumerHoldsPins(t *testing.T) {
	const pages = 200
	w := newWorld(t, 64)
	sh := NewShares(w.env, w.pool, ShareConfig{BlockPages: 8})
	// The slow rider sits on its first block while the fast one laps. The
	// producer's window must fill and park rather than outrun the slow
	// consumer's unconsumed pins — so the fast consumer can never get more
	// than a window ahead.
	var fastTaken, fastAtRelease, windowAtRelease int
	w.env.Go("fast", func(p *sim.Proc) {
		c := sh.Attach(1, w.file, pages)
		for {
			_, ok, err := c.Next(p)
			if err != nil || !ok {
				return
			}
			fastTaken++
			c.Consumed()
		}
	})
	w.env.Go("slow", func(p *sim.Proc) {
		c := sh.Attach(2, w.file, pages)
		if _, ok, err := c.Next(p); !ok || err != nil {
			t.Errorf("slow consumer first block: ok=%v err=%v", ok, err)
			return
		}
		p.Sleep(50 * sim.Millisecond) // hold the first block
		fastAtRelease = fastTaken
		windowAtRelease, _ = sh.scans[w.file.ID()].budget()
		c.Consumed()
		for {
			_, ok, err := c.Next(p)
			if err != nil || !ok {
				return
			}
			c.Consumed()
		}
	})
	w.env.Run()
	share := sh.scans[w.file.ID()]
	// While the slow consumer held block 0, the producer could deliver at
	// most the pinned window, so the fast consumer is bounded by it — it
	// cannot lap a held block.
	if fastAtRelease <= 0 || fastAtRelease > windowAtRelease {
		t.Errorf("fast consumer took %d blocks while block 0 was held; window is %d", fastAtRelease, windowAtRelease)
	}
	if fastTaken != int(share.blocks) {
		t.Errorf("fast consumer finished %d blocks of %d", fastTaken, share.blocks)
	}
	if w.pool.Pinned() != 0 {
		t.Errorf("pin ledger holds %d after both consumers, want 0", w.pool.Pinned())
	}
	if sh.Live() != 0 {
		t.Errorf("%d consumers still attached", sh.Live())
	}
}

// TestShareBudgetFitsSmallPool runs three circulating scans on a 32-frame
// pool. Attach clamps their blocks to four pages, and half the pool split
// three ways is one block each: the producers must stay inside that half,
// with no more than 16 frames pinned or loading at any sampled instant, and
// still read their blocks whole.
func TestShareBudgetFitsSmallPool(t *testing.T) {
	const capacity, pages = 32, 64
	env := sim.NewEnv(1)
	m := disk.NewManager(device.NewSSD(env, device.DefaultSSDConfig()))
	pool := NewPool(env, capacity)
	sh := NewShares(env, pool, ShareConfig{})
	riding, peak := 3, 0
	for i := 0; i < riding; i++ {
		f := m.MustAllocate(fmt.Sprintf("t%d", i), pages)
		env.Go("rider", func(p *sim.Proc) {
			defer func() { riding-- }()
			exactlyOnce(t, f.Name(), collectLap(t, p, sh.Attach(int64(i), f, pages)), pages)
		})
	}
	env.Go("monitor", func(p *sim.Proc) {
		for riding > 0 {
			claimed := 0
			for i := range pool.frames {
				if f := &pool.frames[i]; f.pins > 0 || f.loading != nil {
					claimed++
				}
			}
			peak = max(peak, claimed)
			p.Sleep(5 * sim.Microsecond)
		}
	})
	env.Run()
	if peak == 0 || peak > capacity/2 {
		t.Errorf("three shares held %d of %d frames pinned or loading, want some and at most half", peak, capacity)
	}
	// With no room to read ahead, each block is still read in one piece:
	// no page is a read of its own.
	if s := pool.Stats; s.Misses != s.JoinedLoads || s.PrefetchReads < 3*pages/4 {
		t.Errorf("three laps: %d misses, %d of them joined, %d block reads; want every page from a block read",
			s.Misses, s.JoinedLoads, s.PrefetchReads)
	}
	if pool.Pinned() != 0 || sh.Live() != 0 {
		t.Errorf("%d pins and %d consumers left at the drain, want 0 and 0", pool.Pinned(), sh.Live())
	}
}

func TestPrefetchStatsSplit(t *testing.T) {
	w := newWorld(t, 64)
	reg := obs.NewRegistry(w.env)
	w.pool.Publish(reg)
	w.run(func(p *sim.Proc) {
		w.pool.Prefetch(w.file, 0)        // one device op, one page
		w.pool.PrefetchRun(w.file, 10, 8) // one device op, eight pages
		p.Sleep(5 * sim.Millisecond)
	})
	st := w.pool.Stats
	if st.PrefetchReads != 2 {
		t.Errorf("PrefetchReads = %d, want 2 (one per device op)", st.PrefetchReads)
	}
	if st.PrefetchedPages != 9 {
		t.Errorf("PrefetchedPages = %d, want 9 (pages covered)", st.PrefetchedPages)
	}
	if got := reg.Counter(obs.MetricBufferPrefetchReads).Value(); got != 2 {
		t.Errorf("registry %s = %d, want 2", obs.MetricBufferPrefetchReads.Name(), got)
	}
	if got := reg.Counter(obs.MetricBufferPrefetchedPages).Value(); got != 9 {
		t.Errorf("registry %s = %d, want 9", obs.MetricBufferPrefetchedPages.Name(), got)
	}
}

func TestPrefetchRunTrimmedCoversOnlyGaps(t *testing.T) {
	w := newWorld(t, 64)
	w.run(func(p *sim.Proc) {
		w.pool.Prefetch(w.file, 12) // pre-cover the middle of [10, 18)
		p.Sleep(5 * sim.Millisecond)
		before := w.pool.Stats
		if issued := w.pool.PrefetchRunTrimmed(w.file, 10, 8); issued != 2 {
			t.Errorf("trimmed run issued %d reads, want 2 (one per gap)", issued)
		}
		if d := w.pool.Stats.PrefetchReads - before.PrefetchReads; d != 2 {
			t.Errorf("PrefetchReads grew by %d, want 2", d)
		}
		if d := w.pool.Stats.PrefetchedPages - before.PrefetchedPages; d != 7 {
			t.Errorf("PrefetchedPages grew by %d, want 7 (page 12 already covered)", d)
		}
		p.Sleep(5 * sim.Millisecond)
		for pg := int64(10); pg < 18; pg++ {
			if !w.pool.Loaded(w.file, pg) {
				t.Errorf("page %d not loaded after trimmed run", pg)
			}
		}
		// A fully covered window issues nothing.
		if issued := w.pool.PrefetchRunTrimmed(w.file, 10, 8); issued != 0 {
			t.Errorf("fully covered trimmed run issued %d reads, want 0", issued)
		}
	})
}
