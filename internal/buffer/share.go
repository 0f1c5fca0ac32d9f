// Circulating shared scans: the buffer layer's answer to N queries
// demand-fetching the same hot table N times over. Each hot file gets at
// most one producer process that walks the file's blocks in a loop, reading
// every block whole with PrefetchRun — the one being delivered and the
// readahead past it — and pinning each block until the slowest attached
// consumer has taken it. Consumers attach mid-flight at the producer's
// current position, receive every block exactly once over one full lap,
// and detach once they have wrapped around their join point — so k
// concurrent scans cost the device roughly one circulation, not k full
// reads.
//
// The producer is the device consumer, not its riders, so with a leasing
// hook installed (SetLeaser) a starting producer leases its queue depth
// like any query: it takes its turn for readahead+1 credits and reads no
// deeper than its grant, instead of stacking block reads on top of the
// depth the demand queries beside it hold.
//
// The producer exits when its last consumer detaches (the simulator's
// deadlock detector treats a permanently parked process as a bug) and
// restarts lazily on the next attach, resuming from its remembered
// position — the scan keeps circulating across idle gaps.
package buffer

import (
	"fmt"

	"pioqo/internal/disk"
	"pioqo/internal/fault"
	"pioqo/internal/obs"
	"pioqo/internal/sim"
)

// ShareConfig tunes the scan-share registry. The zero value takes the
// defaults noted per field.
type ShareConfig struct {
	// BlockPages is the delivery granularity: pages per pushed batch and
	// per readahead device read. Default 64, clamped to an eighth of the
	// pool so one share can never monopolize it.
	BlockPages int

	// Retry bounds the producer's response to injected device faults with
	// the executor's policy; its zero fields take fault.DefaultRetry's.
	Retry fault.RetryPolicy
}

// producerDepth caps how many blocks an unleased producer reads ahead: one
// with no leasing hook installed, or holding an unbounded grant.
const producerDepth = 4

func (c ShareConfig) normalized() ShareConfig {
	if c.BlockPages <= 0 {
		c.BlockPages = disk.BlockPages
	}
	c.Retry = c.Retry.Normalized()
	return c
}

// Shares is the per-pool scan-share registry: one ScanShare per hot file,
// plus the interest counts queries use to decide whether a table has
// enough co-running queries to make attaching worthwhile.
type Shares struct {
	env  *sim.Env
	pool *Pool
	cfg  ShareConfig

	scans    map[disk.FileID]*ScanShare
	interest map[disk.FileID]int
	live     int // running producer processes

	lease func(demand int) DepthLease // nil: producers run unleased

	obs *obs.Registry // the pool's
}

// DepthLease is a producer's grant of device queue depth from whoever owns
// the device's supply: Await blocks until it is granted, Budget reports
// the grant (0 = unbounded) and Release returns it. The broker's lease
// satisfies it.
type DepthLease interface {
	Await(p *sim.Proc)
	Budget() int
	Release()
}

// NewShares returns a registry over pool, recording into the pool's
// observability registry. One registry serves the whole system; shares are
// created lazily on first attach.
func NewShares(env *sim.Env, pool *Pool, cfg ShareConfig) *Shares {
	return &Shares{
		env:      env,
		pool:     pool,
		obs:      pool.obs,
		cfg:      cfg.normalized(),
		scans:    make(map[disk.FileID]*ScanShare),
		interest: make(map[disk.FileID]int),
	}
}

// SetLeaser installs the hook a starting producer leases its queue depth
// through: lease enqueues a demand of readahead+1 credits and returns the
// pending grant. nil uninstalls it.
func (s *Shares) SetLeaser(lease func(demand int) DepthLease) { s.lease = lease }

// AddInterest records one more in-flight query against file f; the engine
// calls it before a scan plans, so co-batched queries see each other before
// any of them plans.
func (s *Shares) AddInterest(f disk.FileID) { s.interest[f]++ }

// DropInterest undoes AddInterest when the query completes or fails.
func (s *Shares) DropInterest(f disk.FileID) {
	if s.interest[f] <= 0 {
		panic(fmt.Sprintf("buffer: interest underflow for file %v", f))
	}
	s.interest[f]--
}

// Interest reports how many in-flight queries have registered against f —
// the optimizer's share-party count.
func (s *Shares) Interest(f disk.FileID) int { return s.interest[f] }

// Live reports the total attached consumers across all shares; after a
// drained batch it is zero, and leak checks assert that.
func (s *Shares) Live() int {
	n := 0
	for _, sh := range s.scans {
		n += len(sh.consumers)
	}
	return n
}

// Attach joins (or starts) file's circulating scan and returns a consumer
// that will be pushed one full lap — every block exactly once, starting at
// the producer's current position. pages is the file's heap page count; it
// fixes the share's geometry on first attach.
func (s *Shares) Attach(qid int64, file *disk.File, pages int64) *ScanConsumer {
	sh := s.scans[file.ID()]
	if sh == nil {
		bp := int64(s.cfg.BlockPages)
		if max := int64(s.pool.Capacity() / 8); bp > max && max > 0 {
			bp = max
		}
		if bp > pages {
			bp = pages
		}
		sh = &ScanShare{
			reg:        s,
			file:       file,
			pages:      pages,
			blockPages: bp,
			blocks:     (pages + bp - 1) / bp,
		}
		s.scans[file.ID()] = sh
	}
	c := &ScanConsumer{sh: sh, qid: qid, join: sh.seq, next: sh.seq, remaining: sh.blocks}
	sh.consumers = append(sh.consumers, c)
	s.obs.Emit(obs.EvScanShareAttach, qid, sh.pos, int64(len(sh.consumers)))
	if !sh.running {
		sh.running = true
		s.live++
		s.env.Go(fmt.Sprintf("scanshare-%v", file.ID()), sh.producer)
	}
	return c
}

// ScanShare is one file's circulating scan: a producer walking the file's
// blocks in a loop and the consumers currently riding it.
type ScanShare struct {
	reg  *Shares
	file *disk.File

	pages      int64
	blockPages int64
	blocks     int64 // blocks per lap

	pos  int64 // next block index the producer will deliver
	seq  int64 // delivery sequence number of that block
	laps int64

	running   bool
	grant     int // the running producer's leased depth; 0 = unleased or unbounded
	consumers []*ScanConsumer
	window    []*batch        // delivered, not yet taken by every waiter
	flow      *sim.Completion // producer parked for window space
}

// batch is one delivered block: its pages pinned until every consumer that
// was attached at delivery time has taken it (or detached).
type batch struct {
	seq     int64
	start   int64
	count   int
	err     error // device fault that survived the retry policy
	handles []Handle
	waiters int
}

func (sh *ScanShare) blockCount(blk int64) int {
	start := blk * sh.blockPages
	n := sh.pages - start
	if n > sh.blockPages {
		n = sh.blockPages
	}
	return int(n)
}

// budget splits the share's frame allowance — half the pool divided among
// live producers — into a delivery window (pinned blocks awaiting the
// slowest consumer, the one being delivered among them) and a readahead
// depth, so concurrent shares can never pin or load the pool to exhaustion.
// An allowance of three blocks or more keeps one of them spare; a smaller
// one has a window of one block and reads ahead only with a second. A
// producer always gets its one block, however many shares split the pool.
// The readahead is further capped by the queue depth: grant−1 blocks under
// a leased grant (the block being delivered takes the last credit),
// producerDepth unleased or under an unbounded grant.
func (sh *ScanShare) budget() (window, readahead int) {
	live := sh.reg.live
	if live < 1 {
		live = 1
	}
	bb := int(int64(sh.reg.pool.Capacity()) / 2 / int64(live) / sh.blockPages)
	window, readahead = bb/2, bb-bb/2-1
	if bb < 3 {
		window, readahead = 1, bb-1
	}
	depth := producerDepth
	if sh.grant > 0 {
		depth = sh.grant - 1
	}
	if readahead > depth {
		readahead = depth
	}
	if max := int(sh.blocks) - 1; readahead > max {
		readahead = max
	}
	if readahead < 0 {
		readahead = 0
	}
	return window, readahead
}

// producer is the circulating scan body: lease its depth, then read the
// current block and the readahead past it, fetch-pin the current block,
// deliver, wrap. It exits when the last consumer detaches, returning its
// lease, and Attach restarts it from the remembered position.
func (sh *ScanShare) producer(p *sim.Proc) {
	sh.grant = 0
	if sh.reg.lease != nil {
		// It waits its turn before its first read; riders that give up
		// meanwhile leave it to exit at the top of the loop once granted.
		_, readahead := sh.budget()
		l := sh.reg.lease(readahead + 1)
		defer l.Release()
		l.Await(p)
		sh.grant = l.Budget()
	}
	for {
		if len(sh.consumers) == 0 {
			sh.running = false
			sh.reg.live--
			return
		}
		window, readahead := sh.budget()
		if len(sh.window) >= window {
			sh.flow = sim.NewCompletion(sh.reg.env)
			p.Wait(sh.flow)
			sh.flow = nil
			continue
		}
		// The block about to be delivered is read in one piece like the
		// readahead past it — on a start, a restart, or after its pages
		// were evicted — never a page at a time; a covered block costs
		// nothing.
		for i := int64(0); i <= int64(readahead); i++ {
			blk := (sh.pos + i) % sh.blocks
			sh.reg.pool.PrefetchRun(sh.file, blk*sh.blockPages, sh.blockCount(blk))
		}
		sh.deliver(p)
	}
}

// deliver fetch-pins the current block (joining its own readahead's
// in-flight reads) and pushes it to every attached consumer. A device
// fault that survives the retry policy is delivered as a failed batch:
// consumers see the error on their next take and wind down.
func (sh *ScanShare) deliver(p *sim.Proc) {
	start := sh.pos * sh.blockPages
	count := sh.blockCount(sh.pos)
	handles := make([]Handle, 0, count)
	var berr error
	for i := int64(0); i < int64(count); i++ {
		h, err := sh.fetchRetry(p, start+i)
		if err != nil {
			berr = err
			break
		}
		handles = append(handles, h)
	}
	if berr != nil {
		for _, h := range handles {
			h.Release()
		}
		handles = nil
	}
	b := &batch{seq: sh.seq, start: start, count: count, err: berr, handles: handles, waiters: len(sh.consumers)}
	sh.seq++
	sh.pos++
	if sh.pos == sh.blocks {
		sh.pos = 0
		sh.laps++
		sh.reg.obs.Emit(obs.EvScanShareLap, obs.NoQuery, sh.laps, int64(len(sh.consumers)))
	}
	if b.waiters == 0 {
		// Every consumer detached during the block's device wait: nobody
		// will take the batch, so release it on the spot (the loop exits
		// next iteration).
		for _, h := range b.handles {
			h.Release()
		}
		return
	}
	sh.window = append(sh.window, b)
	for _, c := range sh.consumers {
		if c.wake != nil && c.next == b.seq {
			w := c.wake
			c.wake = nil
			w.Fire()
		}
	}
}

func (sh *ScanShare) fetchRetry(p *sim.Proc, page int64) (Handle, error) {
	retry := sh.reg.cfg.Retry
	var lastErr error
	for attempt := 0; attempt < retry.MaxAttempts; attempt++ {
		if attempt > 0 {
			p.Sleep(retry.BackoffFor(attempt - 1))
		}
		h, err := sh.reg.pool.FetchPageE(p, sh.file, page)
		if err == nil {
			return h, nil
		}
		lastErr = err
	}
	return Handle{}, lastErr
}

func (sh *ScanShare) find(seq int64) *batch {
	for _, b := range sh.window {
		if b.seq == seq {
			return b
		}
	}
	return nil
}

// take releases one consumer's claim on b; the last claim releases the
// block's pins and unparks the producer.
func (sh *ScanShare) take(b *batch) {
	b.waiters--
	if b.waiters > 0 {
		return
	}
	for _, h := range b.handles {
		h.Release()
	}
	b.handles = nil
	for i, wb := range sh.window {
		if wb == b {
			sh.window = append(sh.window[:i], sh.window[i+1:]...)
			break
		}
	}
	if sh.flow != nil && !sh.flow.Fired() {
		sh.flow.Fire()
	}
}

// PageRun is one pushed block: Count consecutive pages starting at Start,
// resident and pinned until the receiving consumer calls Consumed.
type PageRun struct {
	Start int64
	Count int
}

// ScanConsumer is one query's ride on a circulating scan: a delivery
// cursor over one lap's worth of sequence numbers.
type ScanConsumer struct {
	sh        *ScanShare
	qid       int64
	join      int64 // delivery seq at attach
	next      int64 // next seq to take
	remaining int64 // seqs left in the lap
	detached  bool
	wake      *sim.Completion
}

// Next blocks until the consumer's next block has been delivered and
// returns it. ok=false means the lap is complete (the consumer has
// wrapped around its join point and detached). A non-nil error is a
// device fault that survived the producer's retries; the consumer is
// detached and must not call Consumed.
func (c *ScanConsumer) Next(p *sim.Proc) (run PageRun, ok bool, err error) {
	if c.detached || c.remaining == 0 {
		return PageRun{}, false, nil
	}
	for {
		if b := c.sh.find(c.next); b != nil {
			if b.err != nil {
				err := b.err
				c.advance(b)
				c.Detach()
				return PageRun{}, false, err
			}
			return PageRun{Start: b.start, Count: b.count}, true, nil
		}
		c.wake = sim.NewCompletion(c.sh.reg.env)
		p.Wait(c.wake)
	}
}

// Consumed releases the block Next returned: the consumer is done reading
// its rows, so its claim on the pins is dropped. The pages' handles stay
// pinned until the slowest attached consumer has done the same.
func (c *ScanConsumer) Consumed() {
	b := c.sh.find(c.next)
	if b == nil {
		panic("buffer: Consumed without a delivered batch")
	}
	c.advance(b)
	if c.remaining == 0 {
		c.Detach()
	}
}

func (c *ScanConsumer) advance(b *batch) {
	c.next++
	c.remaining--
	c.sh.take(b)
}

// Detach removes the consumer from the share, dropping its claims on any
// delivered-but-untaken blocks so the slowest-consumer pinning never waits
// on a departed query. Idempotent; called automatically when the lap
// completes and explicitly on abort paths.
func (c *ScanConsumer) Detach() {
	if c.detached {
		return
	}
	c.detached = true
	sh := c.sh
	for i, cc := range sh.consumers {
		if cc == c {
			sh.consumers = append(sh.consumers[:i], sh.consumers[i+1:]...)
			break
		}
	}
	// Claims we still hold: every window batch delivered at or past our
	// cursor counted us as a waiter (batches before our join predate the
	// attach and never did). Copy first — take mutates the window.
	var owed []*batch
	for _, b := range sh.window {
		if b.seq >= c.next {
			owed = append(owed, b)
		}
	}
	for _, b := range owed {
		sh.take(b)
	}
	sh.reg.obs.Emit(obs.EvScanShareDetach, c.qid, sh.blocks-c.remaining, int64(len(sh.consumers)))
	// The producer may be parked on window space that only frees when the
	// departing consumer's claims drop; take already unparked it if so.
}
