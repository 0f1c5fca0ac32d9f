package buffer

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"pioqo/internal/device"
	"pioqo/internal/disk"
	"pioqo/internal/fault"
	"pioqo/internal/sim"
)

// discard drops one unpinned, loaded, clean frame at once, an eviction the
// fuzzers place where they draw it. Pinned, loading or dirty frames are
// left alone. It reports whether the frame was dropped.
func (p *Pool) discard(file *disk.File, page int64) bool {
	f := p.lookup(file, page)
	if f == nil || !f.idle() || f.dirty {
		return false
	}
	p.evict(f)
	return true
}

// refPool is an independent reference implementation of the pool, kept
// deliberately naive — a map of frames and a slice of idle pages, most
// recent first — with the semantics of the pool the frame arena replaced,
// plus the scan rule: a page a read of more than one page installed, pinned
// once since, goes to the slice's end when it becomes idle.
// It predicts every device request; the recording device below tells it
// when a read completes.
type refPool struct {
	capacity int
	frames   map[PageKey]*refFrame
	lru      []PageKey   // idle pages, most recently used first
	reads    [][]PageKey // per device read, in issue order: the pages it installed
	requests []request   // every device request, in issue order
	stats    Stats
	epoch    uint64
}

type refFrame struct {
	pins, refs          int // refs counts pins since install
	dirty, loading, run bool
}

type request struct {
	write bool
	key   PageKey // first page
	count int
}

func (r *refPool) idle(k PageKey) bool { f := r.frames[k]; return f.pins == 0 && !f.loading }

func (r *refPool) unlink(k PageKey) {
	for i, q := range r.lru {
		if q == k {
			r.lru = append(r.lru[:i], r.lru[i+1:]...)
		}
	}
}

func (r *refPool) drop(k PageKey) { delete(r.frames, k); r.epoch++ }

// dirtyRuns partitions the dirty loaded pages into the writes that write
// them back, in ascending (file, page) order: two pages share a write when
// they are adjacent, in one disk.BlockPages-aligned block and both unpinned.
func (r *refPool) dirtyRuns() []request {
	var dirty []PageKey
	for k, f := range r.frames {
		if f.dirty && !f.loading {
			dirty = append(dirty, k)
		}
	}
	sort.Slice(dirty, func(i, j int) bool {
		a, b := dirty[i], dirty[j]
		return a.File < b.File || a.File == b.File && a.Page < b.Page
	})
	var runs []request
	for i, k := range dirty {
		if i > 0 {
			prev := dirty[i-1]
			if prev.File == k.File && prev.Page+1 == k.Page && prev.Page/disk.BlockPages == k.Page/disk.BlockPages &&
				r.frames[prev].pins == 0 && r.frames[k].pins == 0 {
				runs[len(runs)-1].count++
				continue
			}
		}
		runs = append(runs, request{true, k, 1})
	}
	return runs
}

// write issues one write request and cleans the pages it covers.
func (r *refPool) write(run request) {
	for i := 0; i < run.count; i++ {
		r.frames[PageKey{run.key.File, run.key.Page + int64(i)}].dirty = false
	}
	r.requests = append(r.requests, run)
	r.stats.DirtyWrites += int64(run.count)
}

func (r *refPool) evict(k PageKey) {
	if r.frames[k].dirty {
		// The victim takes its whole run with it.
		for _, run := range r.dirtyRuns() {
			if run.key.File == k.File && run.key.Page <= k.Page && k.Page < run.key.Page+int64(run.count) {
				r.write(run)
			}
		}
	}
	r.unlink(k)
	r.drop(k)
	r.stats.Evictions++
}

// read issues one device read and installs the absent pages of its range.
func (r *refPool) read(k PageKey, count int) {
	r.requests = append(r.requests, request{false, k, count})
	var installed []PageKey
	for i := 0; i < count; i++ {
		pg := PageKey{k.File, k.Page + int64(i)}
		if r.frames[pg] != nil {
			continue
		}
		if len(r.frames) == r.capacity {
			r.evict(r.lru[len(r.lru)-1])
		}
		r.frames[pg] = &refFrame{loading: true, run: count > 1}
		r.epoch++
		installed = append(installed, pg)
	}
	r.reads = append(r.reads, installed)
}

// complete is the device finishing read number id.
func (r *refPool) complete(id int, failed bool) {
	for _, k := range r.reads[id] {
		if failed {
			r.drop(k)
			r.stats.ReadErrors++
			continue
		}
		r.frames[k].loading = false
		if r.idle(k) {
			r.lru = append([]PageKey{k}, r.lru...)
		}
	}
}

// busy counts the frames no eviction can reclaim right now.
func (r *refPool) busy() int {
	n := 0
	for k := range r.frames {
		if !r.idle(k) {
			n++
		}
	}
	return n
}

func (r *refPool) fetch(k PageKey) {
	switch f := r.frames[k]; {
	case f == nil:
		r.stats.Misses++
		r.read(k, 1)
	case f.loading:
		r.stats.Misses++
		r.stats.JoinedLoads++
	default:
		r.stats.Hits++
	}
	if r.idle(k) {
		r.unlink(k)
	}
	r.frames[k].pins++
	r.frames[k].refs++
}

func (r *refPool) release(k PageKey) {
	f := r.frames[k]
	switch f.pins--; {
	case !r.idle(k):
	case f.run && f.refs == 1:
		r.lru = append(r.lru, k)
	default:
		r.lru = append([]PageKey{k}, r.lru...)
	}
}

func (r *refPool) readahead(k PageKey, count int) {
	r.stats.PrefetchReads++
	r.stats.PrefetchedPages += int64(count)
	r.read(k, count)
}

func (r *refPool) prefetchRun(k PageKey, count int, trimmed bool) {
	gap := -1
	for i := 0; i <= count; i++ {
		if i < count && r.frames[PageKey{k.File, k.Page + int64(i)}] == nil {
			if !trimmed {
				r.readahead(k, count)
				return
			}
			if gap < 0 {
				gap = i
			}
		} else if gap >= 0 {
			r.readahead(PageKey{k.File, k.Page + int64(gap)}, i-gap)
			gap = -1
		}
	}
}

func (r *refPool) discard(k PageKey) {
	if f := r.frames[k]; f != nil && r.idle(k) && !f.dirty {
		r.evict(k)
	}
}

func (r *refPool) flush() {
	for len(r.lru) > 0 {
		r.evict(r.lru[len(r.lru)-1])
	}
}

// flushDirty predicts the checkpoint's writes, one per run, in ascending
// page order; the pool's own order is slot order, so the test sorts before
// comparing.
func (r *refPool) flushDirty() {
	for _, run := range r.dirtyRuns() {
		r.write(run)
	}
}

// recDevice records the pool's device requests and reports each read's
// completion to the reference. It registers on the completion before the
// pool can, so the reference has always just taken the step the pool is
// about to take.
type recDevice struct {
	device.Device
	ref      *refPool
	reads    int
	requests []request // key.Page holds the device page, key.File is unset
}

func (d *recDevice) ReadAt(offset int64, length int) *sim.Completion {
	c := d.Device.ReadAt(offset, length)
	id := d.reads
	d.reads++
	d.requests = append(d.requests, request{false, PageKey{Page: offset / disk.PageSize}, length / disk.PageSize})
	c.OnFire(func() { d.ref.complete(id, c.Err() != nil) })
	return c
}

func (d *recDevice) WriteAt(offset int64, length int) *sim.Completion {
	d.requests = append(d.requests, request{true, PageKey{Page: offset / disk.PageSize}, length / disk.PageSize})
	return d.Device.WriteAt(offset, length)
}

// arenaError checks the arena's own invariant: every slot is either indexed
// or on the free list, exactly once, and the LRU links exactly the idle
// indexed frames, consistently in both directions.
func arenaError(p *Pool) error {
	held := make([]int, len(p.frames))
	idle := 0
	indexed := 0
	for _, c := range p.index.cells {
		if c.slot == none {
			continue
		}
		indexed++
		held[c.slot]++
		f := &p.frames[c.slot]
		if pack(f.key.File, f.key.Page) != c.key || f.slot != c.slot || p.index.get(c.key) != c.slot {
			return fmt.Errorf("index cell %#x → slot %d holds %v (slot field %d, lookup finds %d)",
				c.key, c.slot, f.key, f.slot, p.index.get(c.key))
		}
		if f.idle() {
			idle++
		}
	}
	if indexed != p.index.n {
		return fmt.Errorf("index counts %d keys, %d cells are in use", p.index.n, indexed)
	}
	for slot := p.free; slot != none; slot = p.frames[slot].next {
		held[slot]++
	}
	for slot, n := range held {
		if n != 1 {
			return fmt.Errorf("slot %d is held %d times by index + free list (%d of %d slots indexed)",
				slot, n, p.index.n, len(p.frames))
		}
	}
	prev := none
	for slot := p.head; slot != none; prev, slot = slot, p.frames[slot].next {
		f := &p.frames[slot]
		if p.index.get(pack(f.key.File, f.key.Page)) != slot || !f.idle() || f.prev != prev {
			return fmt.Errorf("LRU links slot %d (%v): pins %d, loading %v, prev %d want %d",
				slot, f.key, f.pins, f.loading != nil, f.prev, prev)
		}
		idle--
	}
	if prev != p.tail || idle != 0 {
		return fmt.Errorf("LRU walk ended at slot %d (tail %d) with %d idle frames unlinked", prev, p.tail, idle)
	}
	return nil
}

// lruOrder lists the idle pages, most recently used first.
func (p *Pool) lruOrder() []PageKey {
	var keys []PageKey
	for slot := p.head; slot != none; slot = p.frames[slot].next {
		keys = append(keys, p.frames[slot].key)
	}
	return keys
}

// TestFuzzPoolMatchesReferenceLRU drives the pool and the reference with
// seeded scripts of every operation the pool has — fetches held across
// steps, releases, single-page and block readahead left in flight, trimmed
// runs, discards, dirty marks, flushes, checkpoints, and injected read
// failures with waiters joined — and after every step compares everything
// observable: traffic stats, epoch, residency, the device request sequence,
// and the whole LRU order, which is the future eviction-victim sequence.
func TestFuzzPoolMatchesReferenceLRU(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { fuzzPool(t, seed) })
	}
}

func fuzzPool(t *testing.T, seed int64) {
	const (
		capacity = 16
		filePgs  = 40
		steps    = 10000
		maxHeld  = 4
		maxRun   = 6
	)
	env := sim.NewEnv(seed)
	inj := fault.Wrap(env, nil, device.NewSSD(env, device.DefaultSSDConfig()))
	ref := &refPool{capacity: capacity, frames: map[PageKey]*refFrame{}}
	dev := &recDevice{Device: inj, ref: ref}
	m := disk.NewManager(dev)
	files := []*disk.File{m.MustAllocate("a", filePgs), m.MustAllocate("b", filePgs)}
	pool := NewPool(env, capacity)
	rng := rand.New(rand.NewSource(seed))

	type pinned struct {
		h Handle
		k PageKey
	}
	var held []pinned
	randKey := func(span int) PageKey {
		return PageKey{disk.FileID(rng.Intn(len(files))), rng.Int63n(int64(filePgs - span + 1))}
	}
	fileOf := func(k PageKey) *disk.File { return files[k.File] }

	// fetchE takes the same step on both sides; on success the caller owns
	// a pin on each.
	fetchE := func(p *sim.Proc, k PageKey) (Handle, bool) {
		ref.fetch(k)
		h, err := pool.FetchPageE(p, fileOf(k), k.Page)
		return h, err == nil
	}
	release := func(pin pinned) {
		ref.release(pin.k)
		pin.h.Release()
	}

	// compare reports whether pool and reference agree on everything
	// observable. checked is how many device requests earlier steps compared.
	checked := 0
	compare := func(step int, op string) bool {
		t.Helper()
		fail := func(format string, args ...any) bool {
			t.Helper()
			t.Errorf("step %d (%s): %s", step, op, fmt.Sprintf(format, args...))
			return false
		}
		if pool.Stats != ref.stats {
			return fail("stats %+v, reference %+v", pool.Stats, ref.stats)
		}
		if pool.Epoch() != ref.epoch {
			return fail("epoch %d, reference %d", pool.Epoch(), ref.epoch)
		}
		if pool.Cached() != len(ref.frames) {
			return fail("cached %d, reference %d", pool.Cached(), len(ref.frames))
		}
		pins, dirty := 0, 0
		for id, f := range files {
			var resident int64
			for pg := int64(0); pg < filePgs; pg++ {
				rf := ref.frames[PageKey{disk.FileID(id), pg}]
				if got := pool.Contains(f, pg); got != (rf != nil) {
					return fail("Contains(%d, %d) = %v, reference %v", id, pg, got, rf != nil)
				}
				if got, want := pool.Loaded(f, pg), rf != nil && !rf.loading; got != want {
					return fail("Loaded(%d, %d) = %v, reference %v", id, pg, got, want)
				}
				if rf != nil {
					resident++
					pins += rf.pins
					if rf.dirty {
						dirty++
					}
				}
			}
			if got := pool.Resident(f); got != resident {
				return fail("Resident(%d) = %d, reference %d", id, got, resident)
			}
		}
		if pool.Pinned() != pins || pool.DirtyPages() != dirty {
			return fail("Pinned() = %d, DirtyPages() = %d, reference %d and %d",
				pool.Pinned(), pool.DirtyPages(), pins, dirty)
		}
		if got := pool.lruOrder(); len(got)+len(ref.lru) > 0 && !reflect.DeepEqual(got, ref.lru) {
			return fail("LRU order %v, reference %v", got, ref.lru)
		}
		if op == "checkpoint" {
			// The pool submits a checkpoint's writes in slot order, the
			// reference predicts them in page order: compare them as a set.
			writes := dev.requests[checked:]
			sort.Slice(writes, func(i, j int) bool { return writes[i].key.Page < writes[j].key.Page })
		}
		if len(dev.requests) != len(ref.requests) {
			return fail("%d device requests, reference %d", len(dev.requests), len(ref.requests))
		}
		for ; checked < len(dev.requests); checked++ {
			got, want := dev.requests[checked], ref.requests[checked]
			want.key = PageKey{Page: fileOf(want.key).Offset(want.key.Page) / disk.PageSize}
			if got != want {
				return fail("device request %d is %+v, reference %+v", checked, got, want)
			}
		}
		if err := arenaError(pool); err != nil {
			return fail("%v", err)
		}
		return true
	}

	env.Go("driver", func(p *sim.Proc) {
		for step := 0; step < steps; step++ {
			// Every step must find room for its installs: let the reads in
			// flight land when busy frames crowd the pool.
			if capacity-ref.busy() <= maxRun {
				p.Sleep(10 * sim.Millisecond)
			}
			op := ""
			switch roll := rng.Intn(100); {
			case roll < 30:
				op = "fetch"
				k := randKey(1)
				h, ok := fetchE(p, k)
				if !ok {
					t.Errorf("step %d: healthy fetch of %v failed", step, k)
					return
				}
				if len(held) < maxHeld && rng.Intn(2) == 0 {
					held = append(held, pinned{h, k})
				} else {
					release(pinned{h, k})
				}
			case roll < 40:
				op = "release"
				if len(held) > 0 {
					i := rng.Intn(len(held))
					release(held[i])
					held = append(held[:i], held[i+1:]...)
				}
			case roll < 50:
				op = "prefetch"
				k := randKey(1)
				if ref.frames[k] == nil {
					ref.readahead(k, 1)
				}
				pool.Prefetch(fileOf(k), k.Page)
			case roll < 62:
				op = "run"
				n := 1 + rng.Intn(maxRun)
				k := randKey(n)
				ref.prefetchRun(k, n, false)
				pool.PrefetchRun(fileOf(k), k.Page, n)
			case roll < 72:
				op = "trimmed run"
				n := 1 + rng.Intn(maxRun)
				k := randKey(n)
				ref.prefetchRun(k, n, true)
				pool.PrefetchRunTrimmed(fileOf(k), k.Page, n)
			case roll < 78:
				op = "discard"
				k := randKey(1)
				ref.discard(k)
				pool.discard(fileOf(k), k.Page)
			case roll < 84:
				op = "mark dirty"
				if len(held) > 0 {
					pin := held[rng.Intn(len(held))]
					ref.frames[pin.k].dirty = true
					pin.h.MarkDirty()
				}
			case roll < 86:
				op = "flush"
				ref.flush()
				pool.Flush()
			case roll < 88:
				op = "checkpoint"
				ref.flushDirty()
				pool.FlushDirty(p)
			case roll < 94:
				// A failed read — of one page or of a run — with three
				// fetchers joined on pages it covers. Reads already in
				// flight were accepted healthy and stay healthy.
				op = "failed read"
				n := 1 + rng.Intn(maxRun)
				k := randKey(n)
				inj.Arm(fault.Schedule{Windows: []fault.Window{{ErrorRate: 1}}})
				if n > 1 {
					ref.prefetchRun(k, n, false)
					pool.PrefetchRun(fileOf(k), k.Page, n)
				}
				wg := sim.NewWaitGroup(env)
				for i := 0; i < 3; i++ {
					wk := PageKey{k.File, k.Page + int64(rng.Intn(n))}
					wg.Add(1)
					env.Go("joiner", func(jp *sim.Proc) {
						defer wg.Done()
						if h, ok := fetchE(jp, wk); ok {
							release(pinned{h, wk})
						}
					})
				}
				p.WaitFor(wg)
				inj.Disarm()
			default:
				op = "settle"
				p.Sleep(sim.Duration(rng.Intn(400)) * sim.Microsecond)
			}
			if !compare(step, op) {
				return
			}
		}
		for _, pin := range held {
			release(pin)
		}
	})
	env.Run()
	if t.Failed() {
		return
	}

	compare(steps, "drain")
	if pool.Pinned() != 0 {
		t.Errorf("%d pins left at drain", pool.Pinned())
	}
	if ref.stats.ReadErrors == 0 || ref.stats.JoinedLoads == 0 || ref.stats.DirtyWrites == 0 || ref.stats.Evictions == 0 {
		t.Errorf("script exercised too little: %+v", ref.stats)
	}
}
