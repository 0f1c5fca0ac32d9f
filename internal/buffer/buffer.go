// Package buffer implements the database buffer pool: a fixed set of page
// frames with pinning, asynchronous prefetch, and the residency statistics
// the optimizer consults. Replacement is an LRU with one scan-resistant
// rule: a page a block read brought in that becomes idle having been pinned
// only once goes to the cold end, so a scan's pages leave first and do not
// flush the hot set; every other idle page goes to the hot end.
//
// The pool tracks page *residency and timing*, not page bytes — table and
// index contents live in their own storage structures (see internal/table
// and internal/btree), while the pool decides which accesses cost an I/O.
// This mirrors what the paper's cost model needs from SQL Anywhere's pool:
// "statistics on how many table and index pages are currently cached".
package buffer

import (
	"errors"
	"fmt"

	"pioqo/internal/disk"
	"pioqo/internal/fault"
	"pioqo/internal/obs"
	"pioqo/internal/sim"
)

// PageKey names a page globally: a file and a page number within it.
type PageKey struct {
	File disk.FileID
	Page int64
}

// Pool is a buffer pool over one disk manager's files. All methods must be
// called from simulation context; FetchPage additionally needs a process.
type Pool struct {
	// frames is the arena: every frame the pool will ever use, allocated
	// once. Frames refer to each other by arena slot, so residency changes
	// allocate nothing.
	frames []frame
	// index holds the slot of every loaded or loading page's frame under its
	// packed (file, page). Every slot is either in the index or on the free
	// list.
	index pageIndex
	// head and tail bound the LRU of idle (loaded, unpinned) frames, linked
	// through frame.prev/next: head is the most recently used, tail the
	// next victim.
	head, tail int32
	// free heads the list of unused slots, linked through frame.next.
	free int32

	files []fileState // indexed by disk.FileID

	// intents holds the pages queries without their grant have missed, under
	// their packed (file, page): nil until the first gated miss, and empty
	// whenever every wanted page has been read (see FetchGated).
	intents map[uint64]*intent
	// parked counts the processes waiting on an intent; 0 at every drain.
	parked int

	// inFlightWrites tracks outstanding write-backs so FlushDirty can wait
	// for durability.
	inFlightWrites *sim.WaitGroup

	// epoch counts residency changes (installs and evictions). Consumers
	// that cache residency-derived state — the optimizer's plan cache — use
	// it as a cheap invalidation token.
	epoch uint64

	Stats Stats

	// obs records frame-uninstall events (failed reads evicting their
	// frame and bumping the epoch); nil records nothing.
	obs *obs.Registry

	// Cumulative registry mirrors, nil until Publish. Unlike Stats, these
	// never reset — per-query numbers come from registry snapshot diffs.
	obsHits, obsMisses, obsJoined, obsPrefetch, obsPrefetchPages, obsEvict, obsDirty, obsReadErr *obs.Counter
	obsCached                                                                                    *obs.Gauge
}

// Stats counts pool traffic since the last ResetStats.
type Stats struct {
	Hits        int64 // requests served without device I/O
	Misses      int64 // requests that had to issue or join a device read
	JoinedLoads int64 // misses that piggybacked on an in-flight read

	// PrefetchReads counts device operations issued by readahead (one per
	// Prefetch, one per PrefetchRun block read); PrefetchedPages counts the
	// pages those operations covered. Their ratio is the readahead
	// efficiency: pages moved per device op.
	PrefetchReads   int64
	PrefetchedPages int64

	Evictions   int64
	DirtyWrites int64 // pages written back from dirty frames
	ReadErrors  int64 // device reads that completed with an error
}

// none is the nil arena slot.
const none int32 = -1

// frame is one arena slot. A slot in use is loading (its device read is in
// flight), pinned, or idle — loaded with no pins, which is exactly the set
// the LRU links. A free slot has no pins, no dirty bit and no read.
type frame struct {
	key   PageKey
	pins  int
	dirty bool
	// run marks a frame a block read installed until a second pin since
	// then shows it is more than one scan's page; pinned records the first.
	// Release links a frame still marked at the LRU's tail.
	run, pinned bool
	loading     *sim.Completion // non-nil while the device read is in flight

	// slot is the frame's own arena index. prev and next are an idle
	// frame's LRU neighbours; while a frame is loading, next chains the
	// frames its device read installed, in install order; on the free list
	// next is the next free slot. A frame is in one of those states at a
	// time, so the uses never overlap.
	slot, prev, next int32
}

// intent is a page that queries without their grant want read: no frame
// and no device request, just the completion its waiters park on. The first
// granted query that wants the page reads it — at its grant, or at its own
// miss — and the read's install fires ready.
type intent struct {
	pool  *Pool
	key   uint64 // the page's index key
	ready *sim.Completion
	issue func() // the grant hook every waiter's gate runs: read the page
	// waiters counts the queries parked on the page: how many its one read
	// releases. The install that fires ready sets it to 0; a waiter whose
	// abort wakes it earlier leaves the count, and the last to leave drops
	// the intent unread.
	waiters int
}

// Gate is a query's admission to the device as the pool sees it: whether
// it may issue reads, a hook run at its grant, the gate itself, which
// FetchGated passes whenever the query reads under its grant, and where the
// query is parked. The broker's lease implements it.
type Gate interface {
	Admitted() bool
	OnAdmit(fn func())
	Admit(p *sim.Proc)
	// Park reports the waiter count of the page intent the query is now
	// parked on — live, read whenever the gate needs it: how many queries
	// the page's one read releases — or nil once the query stops waiting.
	Park(waiters *int)
}

// ErrLeftGate is what FetchGated returns to a query whose abort woke it from
// a page intent, or found it at one: it read nothing, and its control holds
// the cause.
var ErrLeftGate = errors.New("buffer: aborted at the gate")

// idle reports whether the frame is on the LRU.
func (f *frame) idle() bool { return f.pins == 0 && f.loading == nil }

// fileState is what the pool keeps per file: the handle its write-backs go
// through and how many of its pages are loaded or loading.
type fileState struct {
	file     *disk.File
	resident int64
}

// pack folds a page's identity into the index key: the file above bit 40,
// the page below, room for 2^40 pages (4 PiB) per file. One word hashes
// with one multiplication and compares with one instruction.
func pack(file disk.FileID, page int64) uint64 { return uint64(file)<<40 | uint64(page) }

// NewPool returns a pool with room for capacity pages.
func NewPool(e *sim.Env, capacity int) *Pool {
	if capacity <= 0 {
		panic(fmt.Sprintf("buffer: pool capacity %d", capacity))
	}
	p := &Pool{
		frames:         make([]frame, capacity),
		index:          newPageIndex(capacity),
		head:           none,
		tail:           none,
		inFlightWrites: sim.NewWaitGroup(e),
	}
	for i := range p.frames {
		p.frames[i].slot, p.frames[i].next = int32(i), int32(i)+1
	}
	p.frames[capacity-1].next = none
	return p
}

// Capacity returns the pool size in pages.
func (p *Pool) Capacity() int { return len(p.frames) }

// Cached reports how many pages are currently loaded or loading.
func (p *Pool) Cached() int { return p.index.n }

// Resident reports how many pages of file f are currently in the pool —
// the statistic the optimizer uses to correct I/O estimates for warm data.
func (p *Pool) Resident(f *disk.File) int64 {
	if id := int(f.ID()); id < len(p.files) {
		return p.files[id].resident
	}
	return 0
}

// ResetStats zeroes the traffic counters. Published registry mirrors keep
// accumulating.
func (p *Pool) ResetStats() { p.Stats = Stats{} }

// Observe hands the pool the registry it records frame-uninstall events
// into.
func (p *Pool) Observe(reg *obs.Registry) { p.obs = reg }

// Publish observes reg and registers the pool's instruments in it under the
// catalog's buffer.* names: cumulative counters mirroring Stats, plus a
// cached_pages gauge tracking residency over virtual time. A cluster
// publishes only its coordinator's pool; the others only Observe.
func (p *Pool) Publish(reg *obs.Registry) {
	p.obs = reg
	p.obsHits = reg.Counter(obs.MetricBufferHits)
	p.obsMisses = reg.Counter(obs.MetricBufferMisses)
	p.obsJoined = reg.Counter(obs.MetricBufferJoinedLoads)
	p.obsPrefetch = reg.Counter(obs.MetricBufferPrefetchReads)
	p.obsPrefetchPages = reg.Counter(obs.MetricBufferPrefetchedPages)
	p.obsEvict = reg.Counter(obs.MetricBufferEvictions)
	p.obsDirty = reg.Counter(obs.MetricBufferDirtyWrites)
	p.obsReadErr = reg.Counter(obs.MetricBufferReadErrors)
	p.obsCached = reg.Gauge(obs.MetricBufferCachedPages)
	p.trackCached()
}

// trackCached refreshes the cached_pages gauge after residency changes.
func (p *Pool) trackCached() { p.obsCached.Set(float64(p.index.n)) }

// lookup returns the page's frame, loaded or loading, or nil.
func (p *Pool) lookup(file *disk.File, page int64) *frame {
	if slot := p.index.get(pack(file.ID(), page)); slot != none {
		return &p.frames[slot]
	}
	return nil
}

// pushFront puts a frame that just became idle on the LRU as the most
// recently used.
func (p *Pool) pushFront(f *frame) {
	f.prev, f.next = none, p.head
	if p.head != none {
		p.frames[p.head].prev = f.slot
	} else {
		p.tail = f.slot
	}
	p.head = f.slot
}

// pushBack puts a frame that just became idle on the LRU as the next victim.
func (p *Pool) pushBack(f *frame) {
	f.prev, f.next = p.tail, none
	if p.tail != none {
		p.frames[p.tail].next = f.slot
	} else {
		p.head = f.slot
	}
	p.tail = f.slot
}

// unlink takes an idle frame off the LRU.
func (p *Pool) unlink(f *frame) {
	if f.prev != none {
		p.frames[f.prev].next = f.next
	} else {
		p.head = f.next
	}
	if f.next != none {
		p.frames[f.next].prev = f.prev
	} else {
		p.tail = f.prev
	}
}

// uninstall removes a frame that is on no list from the pool and frees its
// slot: the page reads as non-resident from here on.
func (p *Pool) uninstall(f *frame) {
	p.index.del(pack(f.key.File, f.key.Page))
	p.files[f.key.File].resident--
	p.epoch++
	p.trackCached()
	f.pins, f.dirty, f.loading = 0, false, nil
	f.next, p.free = p.free, f.slot
}

// evict drops an idle frame.
func (p *Pool) evict(f *frame) {
	p.unlink(f)
	p.uninstall(f)
	p.Stats.Evictions++
	p.obsEvict.Inc()
}

// evictOne removes the idle frame at the LRU's tail, writing it back
// asynchronously first if dirty. It reports whether a frame was freed. The
// frame is reusable immediately — the page image is handed to the device
// queue, which is how real pools avoid stalling page allocation on
// write-back.
func (p *Pool) evictOne() bool {
	if p.tail == none {
		return false
	}
	f := &p.frames[p.tail]
	if f.dirty {
		p.writeBack(f)
	}
	p.evict(f)
	return true
}

// writeBack issues one asynchronous device write for a dirty frame and its
// run: the dirty frames of its file that are loaded, unpinned and contiguous
// with it inside its disk.BlockPages-aligned block, the blocks a full scan
// reads. Every frame written is clean afterwards and stays resident. A
// pinned frame, which only a checkpoint writes, goes alone: its holder may
// still be changing it.
//
// The alignment makes the runs a function of the set of dirty pages alone:
// whichever of a run's frames is written first takes the rest with it, so
// the requests do not depend on which comes first in slot or LRU order.
func (p *Pool) writeBack(f *frame) {
	id := f.key.File
	lo, hi := f.key.Page, f.key.Page+1
	if f.pins == 0 {
		block := lo - lo%disk.BlockPages
		for lo > block && p.inRun(id, lo-1) {
			lo--
		}
		for hi < block+disk.BlockPages && p.inRun(id, hi) {
			hi++
		}
	}
	for pg := lo; pg < hi; pg++ {
		p.frames[p.index.get(pack(id, pg))].dirty = false
	}
	p.Stats.DirtyWrites += hi - lo
	p.obsDirty.Add(hi - lo)
	p.inFlightWrites.Add(1)
	p.files[id].file.WriteRun(lo, int(hi-lo)).OnFire(p.inFlightWrites.Done)
}

// inRun reports whether the page has a dirty idle frame, one writeBack may
// add to a neighbour's run.
func (p *Pool) inRun(id disk.FileID, page int64) bool {
	slot := p.index.get(pack(id, page))
	return slot != none && p.frames[slot].dirty && p.frames[slot].idle()
}

// install claims a slot for the page as a loading frame of the device read
// c, evicting if the pool is full. Running out of evictable frames is a
// sizing bug in the caller (too many pins or prefetches for the pool), and
// panics rather than deadlocking silently.
func (p *Pool) install(file *disk.File, page int64, c *sim.Completion) int32 {
	if p.free == none && !p.evictOne() {
		panic(fmt.Sprintf("buffer: all %d frames pinned or loading", len(p.frames)))
	}
	id := file.ID()
	if int(id) >= len(p.files) {
		p.files = append(p.files, make([]fileState, int(id)+1-len(p.files))...)
	}
	p.files[id].file = file
	p.files[id].resident++

	f := &p.frames[p.free]
	p.free = f.next
	f.key, f.loading, f.next = PageKey{id, page}, c, none
	f.run, f.pinned = false, false
	key := pack(id, page)
	p.index.put(key, f.slot)
	p.epoch++
	p.trackCached()
	if len(p.intents) > 0 {
		if in := p.intents[key]; in != nil {
			// Whoever reads a wanted page reads it for every waiter: they
			// wake to join this frame's load.
			delete(p.intents, key)
			in.waiters = 0
			in.ready.Fire()
		}
	}
	return f.slot
}

// onLoad registers the one completion callback of the device read c, which
// covers every frame the read installed: the chain starting at slot first.
// Fire runs it before any process waiting on c resumes.
func (p *Pool) onLoad(c *sim.Completion, first int32) {
	c.OnFire(func() {
		err := c.Err()
		for slot := first; slot != none; {
			f := &p.frames[slot]
			slot = f.next // both branches below relink f
			if err != nil {
				// The read failed: free the slot so the page reads as
				// non-resident and a retry re-issues the device read.
				// Processes that pinned the frame to join the load drop
				// their claim with it; they see the error on c and do not
				// look at the frame again.
				p.uninstall(f)
				p.Stats.ReadErrors++
				p.obsReadErr.Inc()
				p.obs.Emit(obs.EvFrameUninstall, obs.NoQuery, f.key.Page, int64(p.epoch))
				continue
			}
			f.loading = nil
			if f.pins == 0 {
				p.pushFront(f)
			}
		}
	})
}

// installRun installs the absent pages of [page, page+count) as loading
// frames of the one device read c, chained in page order. A read of more
// than one page marks its frames as a scan's.
func (p *Pool) installRun(file *disk.File, page int64, count int, c *sim.Completion) {
	first, last := none, none
	for pg := page; pg < page+int64(count); pg++ {
		if p.lookup(file, pg) != nil {
			continue
		}
		slot := p.install(file, pg, c)
		p.frames[slot].run = count > 1
		if last == none {
			first = slot
		} else {
			p.frames[last].next = slot
		}
		last = slot
	}
	p.onLoad(c, first)
}

// pin marks the frame in use, taking it off the eviction list.
func (p *Pool) pin(f *frame) {
	if f.idle() {
		p.unlink(f)
	}
	f.pins++
	if f.run {
		f.run, f.pinned = !f.pinned, true
	}
}

// Handle is a pinned page. Callers must Release exactly once.
type Handle struct {
	pool *Pool
	f    *frame
}

// Key returns the pinned page's identity.
func (h Handle) Key() PageKey { return h.f.key }

// MarkDirty flags the page as modified; eviction (or FlushDirty) will
// write it back to the device.
func (h Handle) MarkDirty() { h.f.dirty = true }

// Release unpins the page, making it evictable again: a block read's page
// that only one pin has used is the next victim, any other page the most
// recently used.
func (h Handle) Release() {
	f := h.f
	if f.pins <= 0 {
		panic("buffer: release of unpinned page " + fmt.Sprint(f.key))
	}
	f.pins--
	switch {
	case !f.idle():
	case f.run:
		h.pool.pushBack(f)
	default:
		h.pool.pushFront(f)
	}
}

// FetchPage returns the page pinned, blocking the process for the device
// read if the page is neither cached nor already being loaded. A read that
// fails (injected device fault) panics; fault-aware callers use FetchPageE.
func (p *Pool) FetchPage(proc *sim.Proc, file *disk.File, page int64) Handle {
	h, err := p.FetchPageE(proc, file, page)
	if err != nil {
		panic(fmt.Sprintf("buffer: read of %v page %d failed: %v", file.ID(), page, err))
	}
	return h
}

// FetchPageE is FetchPage with the device's verdict surfaced: if the read
// completes with an error the page is not pinned, the frame is gone from
// the pool (the read's completion callback frees its slot before any waiter
// resumes), and the error is returned for the executor's retry policy to
// handle. Processes that joined an in-flight load observe the same error.
func (p *Pool) FetchPageE(proc *sim.Proc, file *disk.File, page int64) (Handle, error) {
	f := p.lookup(file, page)
	var c *sim.Completion
	switch {
	case f == nil:
		p.Stats.Misses++
		p.obsMisses.Inc()
		c = file.ReadPage(page)
		f = &p.frames[p.install(file, page, c)]
		p.onLoad(c, f.slot)
	case f.loading != nil:
		p.Stats.Misses++
		p.Stats.JoinedLoads++
		p.obsMisses.Inc()
		p.obsJoined.Inc()
		c = f.loading
	default:
		return p.hit(f), nil
	}
	p.pin(f)
	proc.Wait(c)
	if err := c.Err(); err != nil {
		return Handle{}, err
	}
	return Handle{p, f}, nil
}

// FetchGated is FetchPageE for a query that may not hold its grant yet. An
// admitted gate is passed and FetchPageE's path taken unchanged. A page
// loaded or loading takes it too: a hit, or a join of a read someone else
// issued, needs no grant. An absent page the query may not read yet becomes
// an intent — no frame, no request — and the process parks on it until the
// page's read is issued: by the first granted query that misses it, or at
// the grant of any query waiting on it, its own included, whichever comes
// first. It then joins that read like any other miss. A granted reader thus
// never waits on an intent, and one read serves every query that wanted the
// page meanwhile. While parked the query is counted among the intent's
// waiters and its gate told so (Park). A Cancel of ctl wakes it at once: it
// leaves the count and returns ErrLeftGate, as it does if canceled before it
// would park.
func (p *Pool) FetchGated(proc *sim.Proc, file *disk.File, page int64, g Gate, ctl *fault.Control) (Handle, error) {
	for !g.Admitted() {
		if p.lookup(file, page) != nil {
			return p.FetchPageE(proc, file, page)
		}
		if ctl.Err() != nil {
			return Handle{}, ErrLeftGate
		}
		key := pack(file.ID(), page)
		in := p.intents[key]
		if in == nil {
			if p.intents == nil {
				p.intents = make(map[uint64]*intent)
			}
			in = &intent{pool: p, key: key, ready: sim.NewCompletion(proc.Env())}
			in.issue = func() {
				if in.waiters > 0 { // neither read nor abandoned
					c := file.ReadPage(page)
					p.onLoad(c, p.install(file, page, c))
				}
			}
			p.intents[key] = in
		}
		g.OnAdmit(in.issue)
		in.waiters++
		p.parked++
		g.Park(&in.waiters)
		ctl.SetWake(in, proc)
		proc.Wait(in.ready)
		ctl.SetWake(nil, nil)
		g.Park(nil)
		p.parked--
		if !in.ready.Fired() {
			return Handle{}, ErrLeftGate
		}
	}
	g.Admit(proc) // granted: returns at once, marking the gate passed
	return p.FetchPageE(proc, file, page)
}

// Wake is the intent's fault.Waker: it wakes proc, canceled while parked on
// in, without the page. proc leaves the intent's waiters, and the last to
// leave drops the intent.
func (in *intent) Wake(proc *sim.Proc) {
	if !in.ready.Excuse(proc) {
		return // the read was issued first: proc is already waking to join it
	}
	if in.waiters--; in.waiters == 0 {
		delete(in.pool.intents, in.key)
	}
}

// Intents reports the pages wanted by queries without their grant and not
// yet read. A drained system has none; leak checks assert that.
func (p *Pool) Intents() int { return len(p.intents) }

// Parked reports the processes waiting on a page intent. A drained system
// has none; leak checks assert that.
func (p *Pool) Parked() int { return p.parked }

// hit pins a loaded frame and counts the hit.
func (p *Pool) hit(f *frame) Handle {
	p.Stats.Hits++
	p.obsHits.Inc()
	p.pin(f)
	return Handle{p, f}
}

// FetchLoaded is the hit of FetchPageE and nothing else: a page present with
// its read complete comes back pinned, counted as a hit, from one index
// probe. Otherwise it reports false having touched nothing — no miss
// counted, no read issued, no blocking — and the caller, free to do first
// whatever must precede a device interaction, goes on to FetchPageE.
func (p *Pool) FetchLoaded(file *disk.File, page int64) (Handle, bool) {
	f := p.lookup(file, page)
	if f == nil || f.loading != nil {
		return Handle{}, false
	}
	return p.hit(f), true
}

// Prefetch asynchronously loads a single page if it is not already present
// or in flight. It never blocks and reports whether a read was issued.
func (p *Pool) Prefetch(file *disk.File, page int64) bool {
	if p.lookup(file, page) != nil {
		return false
	}
	p.Stats.PrefetchReads++
	p.Stats.PrefetchedPages++
	p.obsPrefetch.Inc()
	p.obsPrefetchPages.Inc()
	c := file.ReadPage(page)
	p.onLoad(c, p.install(file, page, c))
	return true
}

// readRun issues one block read for [page, page+count) and installs the
// pages of it the pool does not hold.
func (p *Pool) readRun(file *disk.File, page int64, count int) {
	c := file.ReadRun(page, count)
	p.Stats.PrefetchReads++
	p.Stats.PrefetchedPages += int64(count)
	p.obsPrefetch.Inc()
	p.obsPrefetchPages.Add(int64(count))
	p.installRun(file, page, count, c)
}

// PrefetchRun asynchronously loads count consecutive pages with one large
// device read, skipping the whole run if every page is already present.
// Pages already resident within a partially-present run are re-covered by
// the block read (the transfer is contiguous either way), matching how
// block-based readahead behaves in practice.
func (p *Pool) PrefetchRun(file *disk.File, page int64, count int) bool {
	for pg := page; pg < page+int64(count); pg++ {
		if p.lookup(file, pg) == nil {
			p.readRun(file, page, count)
			return true
		}
	}
	return false
}

// PrefetchRunTrimmed is PrefetchRun with overlap trimming: instead of
// re-covering pages another scan's readahead already brought (or is
// bringing) in, it issues one block read per *uncovered* gap in
// [page, page+count). With several unshared scans circulating the same
// file, this is what keeps their readahead windows from multiplying
// device work for bytes the pool already holds — the multi-query prefetch
// coordination path. It reports how many device reads were issued.
func (p *Pool) PrefetchRunTrimmed(file *disk.File, page int64, count int) int {
	issued := 0
	gap := int64(-1) // start of the current uncovered gap, -1 = none open
	for pg, end := page, page+int64(count); pg <= end; pg++ {
		if pg < end && p.lookup(file, pg) == nil {
			if gap < 0 {
				gap = pg
			}
			continue
		}
		// A present page, or the end of the run, closes the open gap.
		if gap >= 0 {
			p.readRun(file, gap, int(pg-gap))
			issued++
			gap = -1
		}
	}
	return issued
}

// Contains reports whether the page is loaded or loading.
func (p *Pool) Contains(file *disk.File, page int64) bool {
	return p.lookup(file, page) != nil
}

// Pinned reports the total pin count across all frames. After a query has
// fully released its handles — including on abort paths — it is zero; tests
// assert that to catch leaked pins.
func (p *Pool) Pinned() int {
	n := 0
	for i := range p.frames {
		n += p.frames[i].pins
	}
	return n
}

// Epoch returns a token that changes whenever pool residency changes.
// Equal epochs guarantee Resident and residency-derived cost estimates are
// unchanged; cached plans keyed on it invalidate automatically.
func (p *Pool) Epoch() uint64 { return p.epoch }

// Flush drops every unpinned, loaded frame — the "flush the memory buffer
// pool" step the paper performs before each experiment. Dirty frames are
// written back asynchronously on the way out. It reports how many frames
// were dropped.
func (p *Pool) Flush() int {
	n := 0
	for p.evictOne() {
		n++
	}
	return n
}

// FlushDirty writes back every dirty frame without evicting anything and
// blocks the process until all write-backs — including those issued
// earlier by evictions — are durable on the device (a checkpoint).
//
// Each write covers one disk.BlockPages-aligned run of dirty frames (see
// writeBack), so a block dirtied throughout goes out as one request, and
// which requests the checkpoint issues depends only on which pages are
// dirty, not on where they sit in the arena.
//
// Runs are submitted in the slot order of the first of their frames the
// walk meets. Which slot a page occupies is a pure function of the
// request history (free slots are reused in a fixed order, victims come off
// the LRU), so the same seed submits the same writes in the same order — on
// a seek-dependent device the order is part of the answer. Sorting by
// (file, page) would be equally repeatable but is an elevator pass, and
// was measured to buy little once runs are written whole: 1 232.9 →
// 1 224.5 ms for a 2 % update of a 12 288-page table on the HDD, nothing
// on the SSD.
func (p *Pool) FlushDirty(proc *sim.Proc) {
	for i := range p.frames {
		if f := &p.frames[i]; f.dirty && f.loading == nil {
			p.writeBack(f)
		}
	}
	proc.WaitFor(p.inFlightWrites)
}

// DirtyPages reports how many loaded frames are currently dirty.
func (p *Pool) DirtyPages() int {
	n := 0
	for i := range p.frames {
		if p.frames[i].dirty {
			n++
		}
	}
	return n
}
