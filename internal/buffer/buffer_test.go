package buffer

import (
	"testing"

	"pioqo/internal/device"
	"pioqo/internal/disk"
	"pioqo/internal/sim"
)

// world bundles the fixtures most tests need.
type world struct {
	env  *sim.Env
	file *disk.File
	pool *Pool
}

func newWorld(t testing.TB, poolPages int) *world {
	t.Helper()
	env := sim.NewEnv(1)
	m := disk.NewManager(device.NewSSD(env, device.DefaultSSDConfig()))
	return &world{
		env:  env,
		file: m.MustAllocate("t", 4096),
		pool: NewPool(env, poolPages),
	}
}

// run executes fn as a process and drives the simulation to completion.
func (w *world) run(fn func(p *sim.Proc)) {
	w.env.Go("test", fn)
	w.env.Run()
}

func TestFetchMissThenHit(t *testing.T) {
	w := newWorld(t, 8)
	w.run(func(p *sim.Proc) {
		h := w.pool.FetchPage(p, w.file, 5)
		h.Release()
		h = w.pool.FetchPage(p, w.file, 5)
		h.Release()
	})
	if w.pool.Stats.Misses != 1 || w.pool.Stats.Hits != 1 {
		t.Errorf("misses=%d hits=%d, want 1 and 1", w.pool.Stats.Misses, w.pool.Stats.Hits)
	}
}

func TestHitCostsNoTime(t *testing.T) {
	w := newWorld(t, 8)
	var missTime, hitTime sim.Duration
	w.run(func(p *sim.Proc) {
		t0 := p.Now()
		w.pool.FetchPage(p, w.file, 0).Release()
		missTime = sim.Duration(p.Now() - t0)
		t0 = p.Now()
		w.pool.FetchPage(p, w.file, 0).Release()
		hitTime = sim.Duration(p.Now() - t0)
	})
	if missTime == 0 {
		t.Error("miss completed in zero virtual time")
	}
	if hitTime != 0 {
		t.Errorf("hit took %v, want 0", hitTime)
	}
}

func TestLRUEvictsColdestPage(t *testing.T) {
	w := newWorld(t, 3)
	w.run(func(p *sim.Proc) {
		for page := int64(0); page < 3; page++ {
			w.pool.FetchPage(p, w.file, page).Release()
		}
		// Touch page 0 so page 1 is coldest, then overflow.
		w.pool.FetchPage(p, w.file, 0).Release()
		w.pool.FetchPage(p, w.file, 3).Release()
	})
	if w.pool.Contains(w.file, 1) {
		t.Error("page 1 survived eviction despite being coldest")
	}
	for _, page := range []int64{0, 2, 3} {
		if !w.pool.Contains(w.file, page) {
			t.Errorf("page %d missing, want resident", page)
		}
	}
	if w.pool.Stats.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", w.pool.Stats.Evictions)
	}
}

// TestScanPagesDoNotFloodTheHotSet: a page a block read brought in and one
// pin used goes to the LRU's tail, so a scan of four times the pool leaves a
// demand-fetched page resident; a scan page a second pin touches, after the
// scan's or during it, goes to the head like any other.
func TestScanPagesDoNotFloodTheHotSet(t *testing.T) {
	const capacity, block, hot = 16, 4, 4000
	w := newWorld(t, capacity)
	key := func(page int64) PageKey { return PageKey{w.file.ID(), page} }
	w.run(func(p *sim.Proc) {
		w.pool.FetchPage(p, w.file, hot).Release()
		for start := int64(0); start < 4*capacity; start += block {
			w.pool.PrefetchRun(w.file, start, block)
			for pg := start; pg < start+block; pg++ {
				w.pool.FetchPage(p, w.file, pg).Release()
			}
		}
		if !w.pool.Contains(w.file, hot) {
			t.Error("a scan of four times the pool evicted the demand-fetched page")
		}
		lru := w.pool.lruOrder()
		if last := key(4*capacity - 1); lru[0] != key(hot) || lru[len(lru)-1] != last {
			t.Errorf("LRU after the scan runs %v … %v, want the hot page first and %v last", lru[0], lru[len(lru)-1], last)
		}

		// A lookup after the scan released the page.
		after := int64(4*capacity - 2)
		w.pool.FetchPage(p, w.file, after).Release()
		if got := w.pool.lruOrder()[0]; got != key(after) {
			t.Errorf("LRU head %v after a second pin of scan page %d, want it", got, after)
		}
		// A lookup while the scan holds the page.
		w.pool.PrefetchRun(w.file, 4*capacity, block)
		during := int64(4 * capacity)
		scan := w.pool.FetchPage(p, w.file, during)
		lookup := w.pool.FetchPage(p, w.file, during)
		scan.Release()
		lookup.Release()
		if got := w.pool.lruOrder()[0]; got != key(during) {
			t.Errorf("LRU head %v after a lookup pinned scan page %d beside the scan, want it", got, during)
		}
	})
}

func TestPinnedPagesAreNotEvicted(t *testing.T) {
	w := newWorld(t, 2)
	w.run(func(p *sim.Proc) {
		h := w.pool.FetchPage(p, w.file, 0)
		w.pool.FetchPage(p, w.file, 1).Release()
		w.pool.FetchPage(p, w.file, 2).Release() // must evict page 1, not pinned 0
		if !w.pool.Contains(w.file, 0) {
			t.Error("pinned page evicted")
		}
		h.Release()
	})
}

func TestAllPinnedPanics(t *testing.T) {
	w := newWorld(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic when every frame is pinned")
		}
	}()
	w.run(func(p *sim.Proc) {
		_ = w.pool.FetchPage(p, w.file, 0) // keep pinned
		_ = w.pool.FetchPage(p, w.file, 1)
	})
}

func TestDoubleReleasePanics(t *testing.T) {
	w := newWorld(t, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on double release")
		}
	}()
	w.run(func(p *sim.Proc) {
		h := w.pool.FetchPage(p, w.file, 0)
		h.Release()
		h.Release()
	})
}

func TestConcurrentFetchesShareOneRead(t *testing.T) {
	w := newWorld(t, 8)
	for i := 0; i < 4; i++ {
		w.env.Go("reader", func(p *sim.Proc) {
			w.pool.FetchPage(p, w.file, 7).Release()
		})
	}
	w.env.Run()
	if w.pool.Stats.JoinedLoads != 3 {
		t.Errorf("joined loads = %d, want 3", w.pool.Stats.JoinedLoads)
	}
	if w.pool.Stats.Misses != 4 {
		t.Errorf("misses = %d, want 4 (one leader, three joiners)", w.pool.Stats.Misses)
	}
}

func TestPrefetchMakesLaterFetchFree(t *testing.T) {
	w := newWorld(t, 8)
	var fetchTime sim.Duration
	w.run(func(p *sim.Proc) {
		w.pool.Prefetch(w.file, 9)
		p.Sleep(10 * sim.Millisecond) // plenty for the read to land
		t0 := p.Now()
		w.pool.FetchPage(p, w.file, 9).Release()
		fetchTime = sim.Duration(p.Now() - t0)
	})
	if fetchTime != 0 {
		t.Errorf("fetch after settled prefetch took %v, want 0", fetchTime)
	}
	if w.pool.Stats.Hits != 1 {
		t.Errorf("hits = %d, want 1", w.pool.Stats.Hits)
	}
}

func TestFetchJoinsInFlightPrefetch(t *testing.T) {
	w := newWorld(t, 8)
	w.run(func(p *sim.Proc) {
		w.pool.Prefetch(w.file, 9)
		w.pool.FetchPage(p, w.file, 9).Release() // joins, does not re-issue
	})
	if got := w.pool.Stats.PrefetchReads; got != 1 {
		t.Errorf("prefetch reads = %d, want 1", got)
	}
	if got := w.pool.Stats.JoinedLoads; got != 1 {
		t.Errorf("joined loads = %d, want 1", got)
	}
}

// FetchLoaded is FetchPageE's hit and only that: an absent page and one whose
// read is in flight are refused with no statistic, no read and no pin; a
// loaded page comes back pinned and counted.
func TestFetchLoaded(t *testing.T) {
	w := newWorld(t, 8)
	w.run(func(p *sim.Proc) {
		if _, ok := w.pool.FetchLoaded(w.file, 9); ok {
			t.Error("absent page reported loaded")
		}
		w.pool.Prefetch(w.file, 9)
		if _, ok := w.pool.FetchLoaded(w.file, 9); ok {
			t.Error("page in flight reported loaded")
		}
		if s := w.pool.Stats; s.Hits != 0 || s.Misses != 0 || s.PrefetchReads != 1 || w.pool.Pinned() != 0 {
			t.Errorf("refusals left hits=%d misses=%d reads=%d pins=%d, want 0, 0, 1, 0",
				s.Hits, s.Misses, s.PrefetchReads, w.pool.Pinned())
		}
		p.Sleep(50 * sim.Millisecond)
		h, ok := w.pool.FetchLoaded(w.file, 9)
		if !ok || w.pool.Stats.Hits != 1 || w.pool.Pinned() != 1 {
			t.Errorf("loaded page: ok=%v hits=%d pins=%d, want true, 1, 1", ok, w.pool.Stats.Hits, w.pool.Pinned())
			return
		}
		h.Release()
	})
}

func TestPrefetchDedupes(t *testing.T) {
	w := newWorld(t, 8)
	w.run(func(p *sim.Proc) {
		if !w.pool.Prefetch(w.file, 3) {
			t.Error("first prefetch reported no-op")
		}
		if w.pool.Prefetch(w.file, 3) {
			t.Error("duplicate prefetch issued a read")
		}
	})
}

func TestPrefetchRunLoadsAllPages(t *testing.T) {
	w := newWorld(t, 64)
	w.run(func(p *sim.Proc) {
		w.pool.PrefetchRun(w.file, 0, 16)
		p.Sleep(50 * sim.Millisecond)
		for page := int64(0); page < 16; page++ {
			if !w.pool.Contains(w.file, page) {
				t.Errorf("page %d not resident after run prefetch", page)
			}
		}
	})
	if got := w.pool.Stats.PrefetchReads; got != 1 {
		t.Errorf("prefetch reads = %d, want 1 block read", got)
	}
}

func TestPrefetchRunSkipsWhenAllPresent(t *testing.T) {
	w := newWorld(t, 64)
	w.run(func(p *sim.Proc) {
		w.pool.PrefetchRun(w.file, 0, 8)
		p.Sleep(50 * sim.Millisecond)
		if w.pool.PrefetchRun(w.file, 0, 8) {
			t.Error("second identical run prefetch issued a read")
		}
	})
}

// TestReadAheadReportsItsLanding: ReadAhead returns the read it issued and
// runs its landed hook once that read's frames are loaded; a run whose pages
// are all present returns nil and never runs it; trimmed, it returns the
// last gap's read and runs the hook as each gap's read lands.
func TestReadAheadReportsItsLanding(t *testing.T) {
	w := newWorld(t, 64)
	w.run(func(p *sim.Proc) {
		var landings []bool // whether the run's last page was loaded at each landing
		landed := func() { landings = append(landings, w.pool.Loaded(w.file, 15)) }
		c := w.pool.ReadAhead(w.file, 0, 16, false, landed)
		if c == nil || len(landings) != 0 {
			t.Fatalf("absent run: read %v, %d landings before it fired", c, len(landings))
		}
		p.Wait(c)
		if len(landings) != 1 || !landings[0] {
			t.Errorf("landings %v, want one with the run loaded", landings)
		}
		if again := w.pool.ReadAhead(w.file, 0, 16, false, landed); again != nil {
			t.Error("a present run issued a read")
		}

		w.pool.Prefetch(w.file, 20) // splits [16, 24) into two gaps
		landings = nil
		last := w.pool.ReadAhead(w.file, 16, 8, true, landed)
		p.Sleep(50 * sim.Millisecond)
		if last == nil || !last.Fired() || len(landings) != 2 {
			t.Errorf("trimmed run: last read %v, %d landings; want a fired read and 2", last, len(landings))
		}
	})
}

func TestResidentTracksPerFile(t *testing.T) {
	env := sim.NewEnv(1)
	m := disk.NewManager(device.NewSSD(env, device.DefaultSSDConfig()))
	fa, fb := m.MustAllocate("a", 100), m.MustAllocate("b", 100)
	pool := NewPool(env, 8)
	env.Go("p", func(p *sim.Proc) {
		pool.FetchPage(p, fa, 0).Release()
		pool.FetchPage(p, fa, 1).Release()
		pool.FetchPage(p, fb, 0).Release()
	})
	env.Run()
	if got := pool.Resident(fa); got != 2 {
		t.Errorf("Resident(a) = %d, want 2", got)
	}
	if got := pool.Resident(fb); got != 1 {
		t.Errorf("Resident(b) = %d, want 1", got)
	}
}

func TestFlushEmptiesPool(t *testing.T) {
	w := newWorld(t, 8)
	w.run(func(p *sim.Proc) {
		for page := int64(0); page < 5; page++ {
			w.pool.FetchPage(p, w.file, page).Release()
		}
	})
	if n := w.pool.Flush(); n != 5 {
		t.Errorf("Flush dropped %d, want 5", n)
	}
	if w.pool.Cached() != 0 {
		t.Errorf("cached = %d after flush, want 0", w.pool.Cached())
	}
	if w.pool.Resident(w.file) != 0 {
		t.Errorf("resident = %d after flush, want 0", w.pool.Resident(w.file))
	}
}

func TestPoolNeverExceedsCapacity(t *testing.T) {
	w := newWorld(t, 16)
	w.run(func(p *sim.Proc) {
		for page := int64(0); page < 200; page++ {
			w.pool.FetchPage(p, w.file, page).Release()
			if w.pool.Cached() > 16 {
				t.Fatalf("pool holds %d frames, capacity 16", w.pool.Cached())
			}
		}
	})
}
