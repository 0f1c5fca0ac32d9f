package buffer

import (
	"reflect"
	"sort"
	"testing"

	"pioqo/internal/device"
	"pioqo/internal/disk"
	"pioqo/internal/sim"
)

func TestDirtyPageWrittenBackOnEviction(t *testing.T) {
	w := newWorld(t, 2)
	w.run(func(p *sim.Proc) {
		h := w.pool.FetchPage(p, w.file, 0)
		h.MarkDirty()
		h.Release()
		if w.pool.DirtyPages() != 1 {
			t.Fatalf("dirty pages = %d, want 1", w.pool.DirtyPages())
		}
		// Overflow the 2-frame pool so page 0 is evicted.
		w.pool.FetchPage(p, w.file, 1).Release()
		w.pool.FetchPage(p, w.file, 2).Release()
	})
	if w.pool.Stats.DirtyWrites != 1 {
		t.Errorf("dirty writes = %d, want 1", w.pool.Stats.DirtyWrites)
	}
}

func TestCleanEvictionIssuesNoWrites(t *testing.T) {
	w := newWorld(t, 2)
	w.run(func(p *sim.Proc) {
		for page := int64(0); page < 10; page++ {
			w.pool.FetchPage(p, w.file, page).Release()
		}
	})
	if w.pool.Stats.DirtyWrites != 0 {
		t.Errorf("dirty writes = %d for a read-only workload", w.pool.Stats.DirtyWrites)
	}
}

func TestFlushDirtyIsACheckpoint(t *testing.T) {
	w := newWorld(t, 8)
	var elapsed sim.Duration
	w.run(func(p *sim.Proc) {
		for page := int64(0); page < 4; page++ {
			h := w.pool.FetchPage(p, w.file, page)
			h.MarkDirty()
			h.Release()
		}
		t0 := p.Now()
		w.pool.FlushDirty(p)
		elapsed = sim.Duration(p.Now() - t0)
	})
	if w.pool.Stats.DirtyWrites != 4 {
		t.Errorf("dirty writes = %d, want 4", w.pool.Stats.DirtyWrites)
	}
	if elapsed == 0 {
		t.Error("checkpoint completed in zero time; writes not awaited")
	}
	if w.pool.DirtyPages() != 0 {
		t.Errorf("dirty pages after checkpoint = %d", w.pool.DirtyPages())
	}
	// Pages stay resident (checkpoint, not eviction).
	if w.pool.Cached() != 4 {
		t.Errorf("cached = %d after checkpoint, want 4", w.pool.Cached())
	}
}

func TestFlushDirtyIdempotent(t *testing.T) {
	w := newWorld(t, 8)
	w.run(func(p *sim.Proc) {
		h := w.pool.FetchPage(p, w.file, 0)
		h.MarkDirty()
		h.Release()
		w.pool.FlushDirty(p)
		w.pool.FlushDirty(p) // nothing left to write
	})
	if w.pool.Stats.DirtyWrites != 1 {
		t.Errorf("dirty writes = %d, want 1", w.pool.Stats.DirtyWrites)
	}
}

func TestPoolFlushWritesDirtyFramesOut(t *testing.T) {
	w := newWorld(t, 8)
	w.run(func(p *sim.Proc) {
		h := w.pool.FetchPage(p, w.file, 3)
		h.MarkDirty()
		h.Release()
		w.pool.Flush()
		p.Sleep(10 * sim.Millisecond) // let the write-back land
	})
	if w.pool.Stats.DirtyWrites != 1 {
		t.Errorf("dirty writes = %d, want 1 from Flush", w.pool.Stats.DirtyWrites)
	}
}

// writeLog is a device that records the write requests it receives.
type writeLog struct {
	device.Device
	writes []span // device pages
}

// span is one write request: its first page and its length in pages.
type span struct {
	page  int64
	count int
}

func (d *writeLog) WriteAt(offset int64, length int) *sim.Completion {
	d.writes = append(d.writes, span{offset / disk.PageSize, length / disk.PageSize})
	return d.Device.WriteAt(offset, length)
}

// newWriteWorld is newWorld over a device that logs its writes. A 10-page
// file comes first, so the table's aligned blocks are not the device's.
func newWriteWorld(t *testing.T, poolPages int) (*world, *writeLog) {
	t.Helper()
	env := sim.NewEnv(1)
	log := &writeLog{Device: device.NewSSD(env, device.DefaultSSDConfig())}
	m := disk.NewManager(log)
	m.MustAllocate("pad", 10)
	return &world{env: env, file: m.MustAllocate("t", 4096), pool: NewPool(env, poolPages)}, log
}

// written returns the writes logged so far in the table's pages, in page
// order, and clears the log.
func (w *world) written(log *writeLog) []span {
	base := w.file.Offset(0) / disk.PageSize
	out := make([]span, len(log.writes))
	for i, s := range log.writes {
		out[i] = span{s.page - base, s.count}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].page < out[j].page })
	log.writes = nil
	return out
}

// dirty fetches each page, marks it dirty and releases it, in the order
// given.
func (w *world) dirty(p *sim.Proc, pages ...int64) {
	for _, pg := range pages {
		h := w.pool.FetchPage(p, w.file, pg)
		h.MarkDirty()
		h.Release()
	}
}

// pageRange lists the pages [lo, hi).
func pageRange(lo, hi int64) []int64 {
	var pages []int64
	for pg := lo; pg < hi; pg++ {
		pages = append(pages, pg)
	}
	return pages
}

// TestEvictionWritesADirtyBlockAsOneRequest: evicting one page of a fully
// dirty aligned block writes the whole block in one request, and nothing
// of the dirty pages on either side of it, though they are contiguous.
func TestEvictionWritesADirtyBlockAsOneRequest(t *testing.T) {
	w, log := newWriteWorld(t, 72)
	w.run(func(p *sim.Proc) {
		// Block [64, 128) first, so page 64 is the LRU's tail.
		w.dirty(p, pageRange(64, 128)...)
		w.dirty(p, pageRange(60, 64)...)
		w.dirty(p, pageRange(128, 132)...)
		w.pool.FetchPage(p, w.file, 1000).Release() // evicts page 64
	})
	if got, want := w.written(log), []span{{64, 64}}; !reflect.DeepEqual(got, want) {
		t.Errorf("eviction wrote %v, want %v", got, want)
	}
	if w.pool.Stats.DirtyWrites != 64 || w.pool.DirtyPages() != 8 {
		t.Errorf("%d pages written, %d left dirty; want 64 and 8", w.pool.Stats.DirtyWrites, w.pool.DirtyPages())
	}
	if w.pool.Cached() != 72 {
		t.Errorf("cached = %d, want 72: the run's other pages stay resident", w.pool.Cached())
	}
}

// TestWriteRunStops: a run ends at its block's boundary and at a page that
// is clean, loading or pinned. Each case dirties pages 60–70, across the
// boundary at 64, but for what page 66 holds.
func TestWriteRunStops(t *testing.T) {
	for _, c := range []struct {
		name string
		// page66 sets up page 66 and returns what to release after the
		// checkpoint, if anything.
		page66 func(p *sim.Proc, w *world) func()
		want   []span
	}{
		{"block boundary", func(p *sim.Proc, w *world) func() {
			w.dirty(p, 66)
			return nil
		}, []span{{60, 4}, {64, 7}}},
		{"clean page", func(p *sim.Proc, w *world) func() {
			w.pool.FetchPage(p, w.file, 66).Release()
			return nil
		}, []span{{60, 4}, {64, 2}, {67, 4}}},
		{"loading frame", func(p *sim.Proc, w *world) func() {
			w.pool.Prefetch(w.file, 66)
			return nil
		}, []span{{60, 4}, {64, 2}, {67, 4}}},
		{"pinned frame", func(p *sim.Proc, w *world) func() {
			h := w.pool.FetchPage(p, w.file, 66)
			h.MarkDirty()
			return h.Release
		}, []span{{60, 4}, {64, 2}, {66, 1}, {67, 4}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			w, log := newWriteWorld(t, 64)
			w.run(func(p *sim.Proc) {
				w.dirty(p, pageRange(60, 66)...)
				w.dirty(p, pageRange(67, 71)...)
				release := c.page66(p, w)
				w.pool.FlushDirty(p)
				if release != nil {
					release()
				}
			})
			if got := w.written(log); !reflect.DeepEqual(got, c.want) {
				t.Errorf("checkpoint wrote %v, want %v", got, c.want)
			}
			var pages int64
			for _, s := range c.want {
				pages += int64(s.count)
			}
			if w.pool.DirtyPages() != 0 || w.pool.Stats.DirtyWrites != pages {
				t.Errorf("%d pages written, %d left dirty; want %d and 0", w.pool.Stats.DirtyWrites, w.pool.DirtyPages(), pages)
			}
		})
	}
}

// TestRedirtiedPageIsWrittenAgain: a page that an eviction's run wrote
// back and left resident, dirtied again, is written again by the next
// checkpoint, along with what the run left dirty beyond its block.
func TestRedirtiedPageIsWrittenAgain(t *testing.T) {
	w, log := newWriteWorld(t, 8)
	var evicted []span
	w.run(func(p *sim.Proc) {
		w.dirty(p, pageRange(60, 68)...)
		w.pool.FetchPage(p, w.file, 1000).Release() // evicts page 60
		evicted = w.written(log)
		w.dirty(p, 62)
		w.pool.FlushDirty(p)
	})
	if want := []span{{60, 4}}; !reflect.DeepEqual(evicted, want) {
		t.Errorf("eviction wrote %v, want %v", evicted, want)
	}
	if got, want := w.written(log), []span{{62, 1}, {64, 4}}; !reflect.DeepEqual(got, want) {
		t.Errorf("checkpoint wrote %v, want %v", got, want)
	}
	if w.pool.Stats.DirtyWrites != 9 {
		t.Errorf("%d pages written, want 9", w.pool.Stats.DirtyWrites)
	}
}

// TestWriteRequestsFollowTheDirtySet: two pools holding the same dirty
// pages in opposite slot orders submit the same set of write requests —
// the runs are aligned, so the first page a checkpoint meets does not
// decide where they start.
func TestWriteRequestsFollowTheDirtySet(t *testing.T) {
	pages := append(pageRange(0, 100), 130, 131, 132, 133, 134, 136, 137, 138, 139, 140, 200)
	checkpoint := func(order []int64) []span {
		w, log := newWriteWorld(t, 128)
		w.run(func(p *sim.Proc) {
			w.dirty(p, order...)
			w.pool.FetchPage(p, w.file, 135).Release() // clean, between two runs
			w.pool.FlushDirty(p)
		})
		return w.written(log)
	}
	reversed := make([]int64, len(pages))
	for i, pg := range pages {
		reversed[len(pages)-1-i] = pg
	}
	want := []span{{0, 64}, {64, 36}, {130, 5}, {136, 5}, {200, 1}}
	if got := checkpoint(pages); !reflect.DeepEqual(got, want) {
		t.Errorf("ascending slots: checkpoint wrote %v, want %v", got, want)
	}
	if got := checkpoint(reversed); !reflect.DeepEqual(got, want) {
		t.Errorf("descending slots: checkpoint wrote %v, want %v", got, want)
	}
}
