package device

import "pioqo/internal/sim"

// SSDConfig describes a flash solid-state drive. The zero value is not
// usable; start from DefaultSSDConfig.
type SSDConfig struct {
	// Capacity is the device size in bytes.
	Capacity int64

	// Units is the number of internal flash units that can service requests
	// concurrently (the product of channel/package/die/plane parallelism the
	// paper cites). Together with CtrlOverhead it determines the beneficial
	// queue depth: throughput grows with queue depth until either all units
	// are busy or the serialized controller saturates.
	Units int

	// FlashLatency is the fixed flash array access latency per chunk.
	FlashLatency sim.Duration

	// UnitMBps is the streaming rate of one flash unit in MB/s; a chunk of n
	// bytes occupies its unit for FlashLatency + n/UnitMBps.
	UnitMBps float64

	// StripeBytes is the internal striping granularity: requests larger than
	// this are split into stripe-sized chunks spread over the units, which is
	// where the sequential-read advantage of large transfers comes from.
	StripeBytes int

	// CtrlOverhead is the serialized controller command-processing time per
	// request; it caps IOPS regardless of internal parallelism.
	CtrlOverhead sim.Duration

	// BusMBps is the host interface bandwidth in MB/s; all completed data is
	// serialized over it, capping sequential throughput.
	BusMBps float64

	// ReadaheadWindow enables sequential detection: a read that begins
	// exactly where the previous accepted read ended, and is no larger than
	// this window, is served from the controller's readahead buffer (bus
	// transfer only). This is what makes small sequential reads cheap on
	// real SSDs even at queue depth 1.
	ReadaheadWindow int

	// ProgramLatency is the flash program (write) time per chunk; programs
	// are several times slower than reads on NAND flash. Zero defaults to
	// 2.5x the read latency.
	ProgramLatency sim.Duration

	// MapSpanBytes is the range of the logical address space covered by one
	// FTL mapping page; MapCachePages is how many mapping pages the
	// controller caches (LRU). A request whose mapping page is not cached
	// pays MapMissPenalty extra flash-unit time. This is the mechanism
	// behind the band-size sensitivity of SSDs in the paper's Fig. 7 — and
	// because the penalty is paid on the parallel units while the IOPS cap
	// is the serialized controller, the band effect fades at high queue
	// depth, as the paper observes.
	MapSpanBytes   int64
	MapCachePages  int
	MapMissPenalty sim.Duration
}

// DefaultSSDConfig models the paper's consumer PCIe SSD: ~1.5 GB/s
// sequential reads, random 4 KB reads reaching roughly half of sequential
// throughput at queue depth 32, near-flat latency up to the internal
// parallelism limit, and a mild band-size penalty that shrinks as queue
// depth grows.
func DefaultSSDConfig() SSDConfig {
	return SSDConfig{
		Capacity:        256 << 30,
		Units:           48,
		FlashLatency:    140 * sim.Microsecond,
		UnitMBps:        400,
		StripeBytes:     64 << 10,
		CtrlOverhead:    5 * sim.Microsecond, // caps IOPS at ~200K
		ProgramLatency:  350 * sim.Microsecond,
		BusMBps:         1500,
		ReadaheadWindow: 1 << 20,
		MapSpanBytes:    4 << 20,
		MapCachePages:   512, // 2 GiB of mapping coverage
		MapMissPenalty:  60 * sim.Microsecond,
	}
}

// SATASSDConfig models a SATA-era consumer SSD: the 550 MB/s interface
// and a slower controller cap both sequential throughput and IOPS well
// below the PCIe drive, and the beneficial queue depth ends near 16.
// Useful for showing that the calibrated QDTT model adapts across device
// generations rather than encoding one device's behaviour.
func SATASSDConfig() SSDConfig {
	cfg := DefaultSSDConfig()
	cfg.Units = 16
	cfg.FlashLatency = 160 * sim.Microsecond
	cfg.UnitMBps = 250
	cfg.CtrlOverhead = 11 * sim.Microsecond // ~90K IOPS cap
	cfg.BusMBps = 550
	return cfg
}

// NVMeSSDConfig models a datacenter NVMe drive a generation beyond the
// paper's: far more internal parallelism, a faster controller, and a
// 3.5 GB/s interface. Its beneficial queue depth extends beyond 32 — the
// "future technologies" case the paper argues a principled cost model
// must absorb without code changes.
func NVMeSSDConfig() SSDConfig {
	cfg := DefaultSSDConfig()
	cfg.Units = 128
	cfg.FlashLatency = 90 * sim.Microsecond
	cfg.UnitMBps = 600
	cfg.CtrlOverhead = 1500 * sim.Nanosecond // ~660K IOPS cap
	cfg.BusMBps = 3500
	cfg.MapCachePages = 2048
	return cfg
}

// SSD is a mechanistic flash drive: a serialized controller front-end, a
// pool of parallel flash units, an LRU FTL mapping cache, and a shared host
// bus. Requests larger than the stripe size are split into chunks that
// proceed through the units in parallel.
type SSD struct {
	env     *sim.Env
	cfg     SSDConfig
	metrics *Metrics

	ctrl  *fifoServer
	units *unitPool
	bus   *fifoServer

	mapCache *lruCache
	lastEnd  int64 // end offset of the previously accepted read, for readahead

	// Requests and their chunks move through the servers as records; a
	// finished record goes back on these lists for the next request.
	requests freeList[ssdRequest]
	chunks   freeList[ssdChunk]
}

// NewSSD returns a drive built from cfg, bound to e.
func NewSSD(e *sim.Env, cfg SSDConfig) *SSD {
	if cfg.Capacity <= 0 || cfg.Units <= 0 || cfg.UnitMBps <= 0 || cfg.BusMBps <= 0 || cfg.StripeBytes <= 0 {
		panic("device: invalid SSD config")
	}
	return &SSD{
		env:      e,
		cfg:      cfg,
		metrics:  NewMetrics(e),
		ctrl:     newFIFOServer(e),
		units:    newUnitPool(e, cfg.Units),
		bus:      newFIFOServer(e),
		mapCache: newLRUCache(cfg.MapCachePages),
		lastEnd:  -1,
	}
}

// Name implements Device.
func (d *SSD) Name() string { return "ssd" }

// Size implements Device.
func (d *SSD) Size() int64 { return d.cfg.Capacity }

// Metrics implements Device.
func (d *SSD) Metrics() *Metrics { return d.metrics }

// ssdRequest is one read or write on its way through the drive.
type ssdRequest struct {
	d         *SSD
	kind      ssdKind
	offset    int64
	length    int
	submitted sim.Time
	done      *sim.Completion
	remaining int // chunks still in flight

	ctrlDone func() // = onCtrlDone
	busDone  func() // = finish: a readahead hit's only transfer
}

type ssdKind uint8

const (
	ssdRead      ssdKind = iota // controller, then per chunk: flash unit, bus
	ssdReadahead                // controller, then one bus transfer
	ssdWrite                    // controller, then per chunk: bus, flash unit
)

// ssdChunk is one stripe-sized piece of a request. Reads visit a flash unit
// and then the bus, writes the bus and then a unit.
type ssdChunk struct {
	r        *ssdRequest
	service  sim.Duration // flash unit time
	transfer sim.Duration // bus time

	unitDone func() // = onUnitDone
	busDone  func() // = onBusDone
}

// submit takes a request record off the free list, fills it in, and queues
// it at the controller.
func (d *SSD) submit(kind ssdKind, offset int64, length int) *sim.Completion {
	r := d.requests.get()
	if r == nil {
		r = &ssdRequest{d: d}
		r.ctrlDone, r.busDone = r.onCtrlDone, r.finish
	}
	r.kind, r.offset, r.length = kind, offset, length
	r.submitted, r.done = d.env.Now(), sim.NewCompletion(d.env)
	d.metrics.Submitted()
	d.ctrl.submit(d.cfg.CtrlOverhead, r.ctrlDone)
	return r.done
}

// WriteAt implements Device: the data crosses the bus first, an FTL map
// update rides the controller, and the flash program occupies a unit for
// the (slower) program latency. Page-mapped FTLs write anywhere, so there
// is no band-size penalty on writes.
func (d *SSD) WriteAt(offset int64, length int) *sim.Completion {
	validate(d, offset, length)
	d.lastEnd = -1 // a write interposes in the readahead stream
	return d.submit(ssdWrite, offset, length)
}

// ReadAt implements Device.
func (d *SSD) ReadAt(offset int64, length int) *sim.Completion {
	validate(d, offset, length)

	// Sequential detection happens at acceptance: a read continuing the
	// previous one within the readahead window skips the flash array
	// entirely — its data is already streaming into the readahead buffer.
	seqHit := d.lastEnd >= 0 && offset == d.lastEnd &&
		d.cfg.ReadaheadWindow > 0 && length <= d.cfg.ReadaheadWindow
	d.lastEnd = offset + int64(length)
	if seqHit {
		return d.submit(ssdReadahead, offset, length)
	}
	return d.submit(ssdRead, offset, length)
}

// onCtrlDone runs when the controller has processed the command: a
// readahead hit goes straight to the bus, anything else is cut into chunks.
func (r *ssdRequest) onCtrlDone() {
	d := r.d
	if r.kind == ssdReadahead {
		d.bus.submit(sim.Duration(float64(r.length)/d.cfg.BusMBps*1e3), r.busDone)
		return
	}

	flash := d.cfg.FlashLatency
	if r.kind == ssdWrite {
		flash = d.cfg.ProgramLatency
		if flash == 0 {
			flash = d.cfg.FlashLatency * 5 / 2
		}
	}
	// FTL lookup happens in the controller; a miss charges the extra
	// mapping-page read to the first chunk's flash unit.
	missPenalty := sim.Duration(0)
	if r.kind == ssdRead && d.cfg.MapCachePages > 0 && !d.mapCache.touch(r.offset/d.cfg.MapSpanBytes) {
		missPenalty = d.cfg.MapMissPenalty
	}

	chunks := (r.length + d.cfg.StripeBytes - 1) / d.cfg.StripeBytes
	r.remaining = chunks
	for i := 0; i < chunks; i++ {
		chunkLen := d.cfg.StripeBytes
		if i == chunks-1 {
			chunkLen = r.length - i*d.cfg.StripeBytes
		}
		c := d.chunks.get()
		if c == nil {
			c = &ssdChunk{}
			c.unitDone, c.busDone = c.onUnitDone, c.onBusDone
		}
		c.r = r
		c.service = flash + sim.Duration(float64(chunkLen)/d.cfg.UnitMBps*1e3)
		if i == 0 {
			c.service += missPenalty
		}
		c.transfer = sim.Duration(float64(chunkLen) / d.cfg.BusMBps * 1e3)
		if r.kind == ssdWrite {
			d.bus.submit(c.transfer, c.busDone)
		} else {
			d.units.submit(c.service, c.unitDone)
		}
	}
}

func (c *ssdChunk) onUnitDone() {
	if c.r.kind == ssdWrite {
		c.finish()
		return
	}
	c.r.d.bus.submit(c.transfer, c.busDone)
}

func (c *ssdChunk) onBusDone() {
	if c.r.kind == ssdWrite {
		c.r.d.units.submit(c.service, c.unitDone)
		return
	}
	c.finish()
}

// finish retires the chunk, and its request with the last one.
func (c *ssdChunk) finish() {
	r := c.r
	c.r = nil
	r.d.chunks.put(c)
	r.remaining--
	if r.remaining == 0 {
		r.finish()
	}
}

// finish completes the request. The record is back on the free list before
// the completion fires: a callback may submit the next request from inside
// Fire, and that request may take this record.
func (r *ssdRequest) finish() {
	d, length, submitted, done := r.d, r.length, r.submitted, r.done
	r.done = nil
	d.requests.put(r)
	d.metrics.Completed(length, sim.Duration(d.env.Now()-submitted))
	done.Fire()
}

// serverJob is a piece of work queued at a server: how long it occupies the
// server, and what runs when it is done.
type serverJob struct {
	service sim.Duration
	then    func()
}

// jobQueue is a FIFO of jobs on a ring (len a power of two) whose storage is
// reused, so steady queueing allocates nothing.
type jobQueue struct {
	ring []serverJob
	head int
	n    int
}

func (q *jobQueue) push(job serverJob) {
	if q.n == len(q.ring) {
		grown := make([]serverJob, max(8, 2*len(q.ring)))
		k := copy(grown, q.ring[q.head:])
		copy(grown[k:], q.ring[:q.head])
		q.ring, q.head = grown, 0
	}
	q.ring[(q.head+q.n)&(len(q.ring)-1)] = job
	q.n++
}

func (q *jobQueue) pop() serverJob {
	job := q.ring[q.head]
	q.head = (q.head + 1) & (len(q.ring) - 1)
	q.n--
	return job
}

// fifoServer is a single-server FIFO queue driven by simulation events: each
// job occupies the server for its service time, then runs its continuation.
type fifoServer struct {
	env   *sim.Env
	busy  bool
	queue jobQueue
	then  func() // continuation of the job in service
	done  func() // = onDone, the event every job schedules
}

func newFIFOServer(e *sim.Env) *fifoServer {
	s := &fifoServer{env: e}
	s.done = s.onDone
	return s
}

func (s *fifoServer) submit(service sim.Duration, then func()) {
	s.queue.push(serverJob{service, then})
	if !s.busy {
		s.next()
	}
}

func (s *fifoServer) next() {
	if s.queue.n == 0 {
		s.busy = false
		return
	}
	s.busy = true
	job := s.queue.pop()
	s.then = job.then
	s.env.Schedule(job.service, s.done)
}

func (s *fifoServer) onDone() {
	s.then()
	s.next()
}

// unitPool is a k-server FIFO queue: jobs run on any free unit. Modelling
// the flash array as a pool (rather than static LBA-to-channel binding)
// reflects die/plane interleaving and is what makes burst-of-n and steady-n
// queue depths equivalent on SSD — the reason the paper finds the GW and AW
// calibration methods agree on SSD but not on spinning media.
type unitPool struct {
	env   *sim.Env
	idle  *flashUnit // free units, linked through next
	queue jobQueue
}

// flashUnit is one server of the pool. Which unit a job lands on changes
// nothing the model measures; the unit only gives the job's continuation a
// place to sit while its event is queued.
type flashUnit struct {
	pool *unitPool
	then func() // continuation of the job in service
	done func() // = onDone
	next *flashUnit
}

func newUnitPool(e *sim.Env, k int) *unitPool {
	p := &unitPool{env: e}
	units := make([]flashUnit, k)
	for i := range units {
		u := &units[i]
		u.pool, u.done, u.next = p, u.onDone, p.idle
		p.idle = u
	}
	return p
}

func (p *unitPool) submit(service sim.Duration, then func()) {
	if p.idle == nil {
		p.queue.push(serverJob{service, then})
		return
	}
	p.run(serverJob{service, then})
}

func (p *unitPool) run(job serverJob) {
	u := p.idle
	p.idle = u.next
	u.then = job.then
	p.env.Schedule(job.service, u.done)
}

func (u *flashUnit) onDone() {
	p, then := u.pool, u.then
	u.next, p.idle = p.idle, u
	then()
	if p.queue.n > 0 && p.idle != nil {
		p.run(p.queue.pop())
	}
}

// lruCache is a fixed-capacity LRU set of int64 keys: an arena of entries
// linked most recently used first, and a map from key to arena slot.
type lruCache struct {
	entries    []lruEntry
	slots      map[int64]int32
	head, tail int32 // most and least recently used; -1 when empty
}

type lruEntry struct {
	key        int64
	prev, next int32
}

func newLRUCache(capacity int) *lruCache {
	return &lruCache{
		entries: make([]lruEntry, 0, capacity),
		slots:   make(map[int64]int32, capacity),
		head:    -1,
		tail:    -1,
	}
}

// touch reports whether key was cached, and in either case makes it the
// most recently used entry (inserting it, evicting the LRU entry if full).
func (c *lruCache) touch(key int64) bool {
	slot, hit := c.slots[key]
	switch {
	case hit:
		if slot == c.head {
			return true
		}
		c.unlink(slot)
	case len(c.entries) < cap(c.entries):
		slot = int32(len(c.entries))
		c.entries = append(c.entries, lruEntry{key: key})
		c.slots[key] = slot
	default:
		slot = c.tail
		c.unlink(slot)
		delete(c.slots, c.entries[slot].key)
		c.entries[slot].key = key
		c.slots[key] = slot
	}
	e := &c.entries[slot]
	e.prev, e.next = -1, c.head
	if c.head >= 0 {
		c.entries[c.head].prev = slot
	} else {
		c.tail = slot
	}
	c.head = slot
	return hit
}

// unlink takes a linked entry out of the recency list.
func (c *lruCache) unlink(slot int32) {
	e := &c.entries[slot]
	if e.prev >= 0 {
		c.entries[e.prev].next = e.next
	} else {
		c.head = e.next
	}
	if e.next >= 0 {
		c.entries[e.next].prev = e.prev
	} else {
		c.tail = e.prev
	}
}
