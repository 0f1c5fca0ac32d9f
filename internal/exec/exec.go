// Package exec implements the paper's four access methods — full table scan
// (FTS), index scan (IS), and their intra-query parallel versions (PFTS,
// PIS) — plus the per-worker table-page prefetching of §3.3, all evaluating
// the paper's probe query:
//
//	SELECT MAX(C1) FROM T WHERE C2 BETWEEN lo AND hi
//
// Operators run as simulation processes: they charge CPU time on a shared
// multi-core resource and perform page I/O through the buffer pool, so the
// device queue depth each method generates (the quantity the QDTT cost model
// prices) emerges from the execution structure rather than being asserted.
package exec

import (
	"fmt"

	"pioqo/internal/btree"
	"pioqo/internal/buffer"
	"pioqo/internal/device"
	"pioqo/internal/disk"
	"pioqo/internal/fault"
	"pioqo/internal/obs"
	"pioqo/internal/sim"
	"pioqo/internal/table"
)

// CPUCosts models per-operation CPU work in virtual time. The defaults are
// chosen so the CPU/I-O balance matches the paper's machine: one core
// saturates the HDD on 33-row pages, two cores saturate it on 500-row pages,
// and eight cores saturate well below the SSD bus on 500-row pages.
type CPUCosts struct {
	PerPage       sim.Duration // page latch + header work when a scan visits a page
	PerRow        sim.Duration // predicate evaluation + aggregation of one row (table scan)
	PerEntry      sim.Duration // processing one (key, row) entry in an index leaf
	PerRowFetch   sim.Duration // locating + evaluating one row reached through the index
	PerPrefetch   sim.Duration // issuing one asynchronous prefetch request
	WorkerStartup sim.Duration // spawning and coordinating one worker thread

	// The hash operators' per-row work, charged with the row on the worker
	// that delivers it (Spec.EmitCost).
	HashInsert sim.Duration // inserting one build row into a hash join's table
	HashProbe  sim.Duration // looking one probe row up in a hash join's table
	HashGroup  sim.Duration // looking one row's group up and folding the row in
}

// DefaultCPUCosts returns the calibrated defaults described above.
func DefaultCPUCosts() CPUCosts {
	return CPUCosts{
		PerPage:       10 * sim.Microsecond,
		PerRow:        150 * sim.Nanosecond,
		PerEntry:      100 * sim.Nanosecond,
		PerRowFetch:   1 * sim.Microsecond,
		PerPrefetch:   3 * sim.Microsecond,
		WorkerStartup: 100 * sim.Microsecond,
		HashInsert:    200 * sim.Nanosecond,
		HashProbe:     150 * sim.Nanosecond,
		HashGroup:     250 * sim.Nanosecond,
	}
}

// Context bundles the runtime an operator executes against.
type Context struct {
	Env   *sim.Env
	CPU   *sim.Resource // logical cores
	Pool  *buffer.Pool
	Dev   device.Device // for per-query I/O metering
	Costs CPUCosts

	// Tracer, when set, records a virtual-time span per operator (under
	// Spec.Span) and one track span per worker, each annotated with pages
	// fetched, rows matched, CPU time, and I/O wait. Nil disables tracing.
	Tracer *obs.Tracer

	// Obs, when set, records worker lifecycle, fault retries and gather
	// events, attributed to Spec.QID, and the engine-wide execution
	// counters (exec.*, shard.*). Nil records nothing.
	Obs *obs.Registry

	// Shares, when set, is the pool's scan-share registry: full scans
	// planned as shared (Spec.Shared) attach to their table's circulating
	// producer instead of demand-fetching. Nil disables scan sharing and
	// every scan takes the demand path.
	Shares *buffer.Shares

	// Scratch, when set, is the node's free list of worker records: fleets
	// take their workers' budgets and scratch buffers from it and return
	// them on exit. Nil makes every worker afresh.
	Scratch *Scratch
}

// Method selects the access path family.
type Method int

const (
	// FullScan reads every heap page in order (FTS; PFTS when Degree > 1).
	FullScan Method = iota
	// IndexScan walks the C2 index and fetches qualifying rows' pages
	// (IS; PIS when Degree > 1).
	IndexScan
)

func (m Method) String() string {
	switch m {
	case FullScan:
		return "FTS"
	case IndexScan:
		return "IS"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// AggKind selects the aggregate computed over matching rows' C1 values.
type AggKind int

const (
	// AggMax is MAX(C1), the paper's probe aggregate (default).
	AggMax AggKind = iota
	// AggMin is MIN(C1).
	AggMin
	// AggCount is COUNT(*).
	AggCount
	// AggSum is SUM(C1).
	AggSum
)

func (k AggKind) String() string {
	switch k {
	case AggMax:
		return "MAX"
	case AggMin:
		return "MIN"
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	default:
		return fmt.Sprintf("AggKind(%d)", int(k))
	}
}

// Governor is the resource-governance hook a broker lease exposes to the
// executor. It is the gate in front of the query's device reads: the query
// runs before its grant, a pool miss waits on the page's intent through the
// buffer.Gate half, and plans that put more than one read in flight Admit
// before they start — so the reservation PoolPages reports is read only
// after the gate. The scan
// also reports each worker starting and exiting, so a winding-down query's
// queue-depth credits can be re-brokered to queued queries while its
// stragglers finish. Implemented by broker.Lease.
type Governor interface {
	// Gate's Admit blocks until the query may issue device reads.
	buffer.Gate
	// Budget is the lease's credit grant; 0 is an unbounded lease.
	Budget() int
	// GrantedAt reports when the grant came (false: not yet), and Gated
	// whether the query has passed its gate. A gated query's time before
	// its grant is its admission wait, which its spans leave out.
	GrantedAt() (sim.Time, bool)
	Gated() bool
	// PoolPages is the buffer-pool reservation granted with the lease: what
	// a bounded lease budgets against, 0 pages included. An unbounded lease
	// budgets against the whole pool.
	PoolPages() int
	StartWorker()
	EndWorker()
}

// Spec describes one execution of the probe query.
type Spec struct {
	Table table.Table
	Index *btree.Index // required for IndexScan
	Lo,
	Hi int64 // predicate: Lo <= C2 <= Hi
	Method Method
	Degree int     // worker count; 1 = non-parallel
	Agg    AggKind // aggregate over C1; default AggMax

	// IndexScan knob: each worker prefetches up to PrefetchPerWorker table
	// pages referenced by its current leaf (§3.3). 0 disables prefetching,
	// giving the paper's baseline PIS whose queue depth equals Degree.
	PrefetchPerWorker int

	// Emit, when set, receives every matching row's id and values instead
	// of the built-in aggregation (Result.Value is then unset; RowsMatched
	// still counts). It is called from worker context with the simulation
	// serialized, so it needs no locking. Composite operators (joins,
	// group-by) use it to consume scan output.
	Emit func(rowID int64, row table.Row)

	// EmitCost is the CPU one call of Emit costs. It is charged with the
	// row to the worker that delivers it, like the scan's own per-row
	// costs, so a hash operator's per-row work runs at the scan's degree.
	// Set by the operator that installs Emit; zero without Emit.
	EmitCost sim.Duration

	// Update, when set, is applied to each matching row's id and the
	// holding page is marked dirty in the buffer pool — the write-back
	// happens on eviction or checkpoint. This is the UPDATE operator's
	// hook; it composes with Emit and the aggregates.
	Update func(rowID int64)

	// Span, when Context.Tracer is set, is the parent the operator span is
	// opened under — typically the query span opened by the caller. Nil
	// makes the operator span a root.
	Span *obs.Span

	// Gov, when set, gates this scan's device reads on the query's grant,
	// supplies the pool reservation its readahead and prefetch clamps budget
	// against (so concurrent queries' prefetch windows cannot collectively
	// exhaust the shared pool), and is notified as its workers start and
	// exit. Nil means ungoverned (single-query execution).
	Gov Governor

	// Ctl, when set, is the query's abort switch: workers and drivers check
	// it at batch boundaries (page, leaf, phase) and wind down cleanly —
	// releasing pins, exiting, reporting to the governor — when it trips.
	// It is also how injected device faults surface: an unrecoverable fetch
	// cancels the control and Result.Err carries the cause. Nil means
	// non-abortable execution where a device fault panics (the pre-fault
	// layer behavior; the engine's query lifecycle always sets a control,
	// joins and group-bys included).
	Ctl *fault.Control

	// Retry bounds the response to injected device read faults when Ctl is
	// set; the zero value means fault.DefaultRetry.
	Retry fault.RetryPolicy

	// QID attributes this scan's events in the engine event log to its
	// query (obs.NoQuery / 0 for unattributed standalone executions).
	QID int64

	// Progress, when set, is incremented once per page the scan's workers
	// fetch (prefetches excluded) — the live-progress counter a Submission
	// exposes as pages processed. Increments are pure Go-side mutation:
	// no events, no randomness, no allocation. For a shared scan it counts
	// pages delivered to this consumer, not the producer's position.
	Progress *int64

	// Shared routes a FullScan through the circulating-scan consumer path:
	// the scan attaches to Context.Shares' producer for its table and
	// consumes pushed page batches over one lap. Set by the optimizer when
	// the attach path priced cheapest; ignored (demand path) when
	// Context.Shares is nil or the spec has row hooks.
	Shared bool

	// CoordPrefetch switches the demand full scan's readahead to the
	// pool's trimmed runs, which skip pages other scans' readahead already
	// covers — the multi-query prefetch coordination for concurrent
	// *unshared* scans of one file. Off (the default) preserves the exact
	// single-query device schedule.
	CoordPrefetch bool
}

// aborted reports whether the query's control has tripped. Nil-safe.
func (s *Spec) aborted() bool { return s.Ctl.Aborted() }

// poolCapacity is the pool capacity this scan's clamps budget against: a
// bounded lease's page reservation — a lease granted on a fully reserved
// pool reserves none — and the whole pool otherwise. It is read after
// admit, when the reservation has been granted.
func (s *Spec) poolCapacity(ctx *Context) int {
	c := ctx.Pool.Capacity()
	if s.Gov != nil && s.Gov.Budget() > 0 {
		c = min(c, s.Gov.PoolPages())
	}
	return c
}

// admit blocks until the governed query may read, where a plan that reads
// ahead starts. Ungoverned and granted scans pass without yielding.
func (s *Spec) admit(p *sim.Proc) {
	if s.Gov != nil {
		s.Gov.Admit(p)
	}
}

// admitDeep admits an index-driven plan before it starts when it would put
// more than one read in flight — a parallel fleet or per-worker prefetch:
// that depth is what its grant is, and its fleet's startup and pins would
// otherwise run under no grant. A serial plan meets its gate,
// if at all, at its first miss.
func (s *Spec) admitDeep(p *sim.Proc) {
	if s.Degree > 1 || s.PrefetchPerWorker > 0 {
		s.admit(p)
	}
}

// startWorker/endWorker report one worker's lifetime to the governor and
// the event log.
func (s *Spec) startWorker(ctx *Context, w int) {
	ctx.Obs.Emit(obs.EvWorkerStart, s.QID, int64(w), 0)
	if s.Gov != nil {
		s.Gov.StartWorker()
	}
}

func (s *Spec) endWorker(ctx *Context, w int) {
	ctx.Obs.Emit(obs.EvWorkerExit, s.QID, int64(w), 0)
	if s.Gov != nil {
		s.Gov.EndWorker()
	}
}

// deliver routes one matching row to the emit hook or the aggregate.
func (s *Spec) deliver(a *agg, h buffer.Handle, rowID int64, row table.Row) {
	if s.Update != nil {
		s.Update(rowID)
		h.MarkDirty()
	}
	if s.Emit != nil {
		s.Emit(rowID, row)
		a.rows++
		return
	}
	a.add(row.C1)
}

// deliverPage routes one page's matching rows, all resident on the pinned
// page h, in row order: to the hooks one by one, or without hooks to the
// aggregate in a single fold.
func (s *Spec) deliverPage(a *agg, h buffer.Handle, matches []table.Match) {
	if s.Update == nil && s.Emit == nil {
		a.addBatch(matches)
		return
	}
	for _, m := range matches {
		s.deliver(a, h, m.ID, m.Row)
	}
}

// withDefaults normalizes zero values.
func (s Spec) withDefaults() Spec {
	if s.Degree <= 0 {
		s.Degree = 1
	}
	return s
}

// Result reports one execution.
type Result struct {
	// Value is the aggregate over matching rows' C1 (MAX by default),
	// valid when Found. COUNT(*) is always Found, reporting 0 on an empty
	// match, per SQL semantics.
	Value       int64
	Found       bool
	RowsMatched int64
	Runtime     sim.Duration

	// Err is why the query aborted (cancellation, deadline, unrecoverable
	// device fault), or nil on a complete scan. An aborted Result's Value
	// and RowsMatched reflect only the work done before the abort.
	Err error

	IO   device.Summary // device traffic during the query
	Pool buffer.Stats   // buffer pool traffic during the query
}

// Execute runs the query described by spec to completion on ctx's
// environment and returns the result. Device and pool statistics are scoped
// to this execution; buffer pool *contents* are left as the query leaves
// them (flush explicitly between runs to model a cold cache).
func Execute(ctx *Context, spec Spec) Result {
	var res Result
	rt, io, pool := metered(ctx, "query", func(p *sim.Proc) { res = RunScan(p, ctx, spec) })
	res.Runtime, res.IO, res.Pool = rt, io, pool
	return res
}

// RunScan executes the query from within an existing process and returns
// when the scan has finished. Runtime and I/O metering are left to the
// caller (see Execute). With a Context.Tracer, the scan records an operator
// span (under spec.Span) with per-worker child spans on their own tracks.
func RunScan(p *sim.Proc, ctx *Context, spec Spec) Result {
	spec = spec.withDefaults()
	op := ctx.Tracer.Start(spec.Span, spec.Method.String(),
		obs.KV("degree", spec.Degree),
		obs.KV("agg", spec.Agg.String()))
	spec.Span = op

	var res Result
	if spec.aborted() {
		res.Err = spec.Ctl.Err()
		op.SetAttr("err", res.Err.Error())
		op.End()
		return res
	}
	switch spec.Method {
	case FullScan:
		if spec.sharable(ctx) {
			res = runSharedFullScan(p, ctx, spec)
		} else {
			res = runFullScan(p, ctx, spec)
		}
	case IndexScan:
		if spec.Index == nil {
			panic("exec: IndexScan without an index")
		}
		res = runIndexScan(p, ctx, spec)
	default:
		panic("exec: unknown method " + spec.Method.String())
	}

	if res.Err = spec.Ctl.Err(); res.Err != nil {
		op.SetAttr("err", res.Err.Error())
	}
	op.SetAttr("rows", res.RowsMatched)
	op.End()
	ctx.Obs.Counter(obs.MetricExecScans).Inc()
	ctx.Obs.Counter(obs.MetricExecRowsMatched).Add(res.RowsMatched)
	return res
}

// agg accumulates one aggregate over C1 plus the matched-row count.
type agg struct {
	kind  AggKind
	val   int64
	found bool
	rows  int64
}

// add folds one row in: a merge of the single-row accumulator.
func (a *agg) add(c1 int64) {
	if a.kind == AggCount {
		c1 = 1
	}
	a.merge(agg{val: c1, found: true, rows: 1})
}

// addBatch folds one page's matches into the accumulator, equivalent to
// calling add per match: the page reduces to a partial with the aggregate
// switch outside the row loop, and the partial merges in.
func (a *agg) addBatch(matches []table.Match) {
	if len(matches) == 0 {
		return
	}
	b := agg{val: matches[0].C1, found: true, rows: int64(len(matches))}
	switch a.kind {
	case AggMax:
		for _, m := range matches[1:] {
			b.val = max(b.val, m.C1)
		}
	case AggMin:
		for _, m := range matches[1:] {
			b.val = min(b.val, m.C1)
		}
	case AggSum:
		for _, m := range matches[1:] {
			b.val += m.C1
		}
	case AggCount:
		b.val = b.rows
	}
	a.merge(b)
}

func (a *agg) merge(b agg) {
	if b.found {
		switch a.kind {
		case AggMax:
			if !a.found || b.val > a.val {
				a.val = b.val
			}
		case AggMin:
			if !a.found || b.val < a.val {
				a.val = b.val
			}
		case AggSum, AggCount:
			a.val += b.val
		}
		a.found = true
	}
	a.rows += b.rows
}

// result converts an accumulator into a Result, applying SQL semantics:
// COUNT(*) of an empty match is 0 (the accumulator's zero value), not NULL.
func (a agg) result() Result {
	return Result{Value: a.val, Found: a.found || a.kind == AggCount, RowsMatched: a.rows}
}

// clampReadahead bounds the full-scan readahead window so that
// prefetched-but-unconsumed frames plus the workers' pins can never exhaust
// the pool: at most half the pool, less one pinned page per worker, may be
// tied up in the block window. Both the block size and the number of
// in-flight blocks are clamped against that single window, so
// blockPages·prefetchBlocks + degree ≤ capacity/2 holds whenever the window
// can accommodate a block at all; a pool too small for any readahead
// (window < 2) degenerates to blockPages = 1, which disables block reads.
func clampReadahead(capacity, degree, blockPages, prefetchBlocks int) (int, int) {
	if blockPages <= 1 {
		return blockPages, prefetchBlocks
	}
	window := capacity/2 - degree
	if blockPages > window {
		blockPages = max(window, 1)
	}
	if blockPages > 1 {
		prefetchBlocks = min(prefetchBlocks, max(window/blockPages, 1))
	}
	return blockPages, prefetchBlocks
}

// defaultPrefetchBlocks is how many block reads a full scan keeps in flight
// ahead of its workers before the pool clamp.
const defaultPrefetchBlocks = 4

// ReadaheadWindow reports the readahead geometry a full scan runs with on a
// pool of capacity frames at the given degree: the pages per block read,
// and its window — the most block reads it has outstanding. The scan issues
// block b only while b is below its lowest block not yet claimed plus the
// window, and while fewer than the window's blocks have pages left to hand
// out (blockClaims), so a scan held up by its device keeps exactly that
// many reads in flight, whichever of them its workers wait for: the blocks
// the readahead runs ahead of the workers plus the one they are waiting on.
// The fleet does not appear in that number except through the pool clamp
// (workers consume pages the readahead has already asked for), so this,
// not the degree, is the device queue depth the optimizer prices a full
// scan at. On a pool too small for any readahead the workers read their
// own pages, one each.
func ReadaheadWindow(capacity, degree int) (blockPages, inFlight int) {
	blockPages, ahead := clampReadahead(capacity, degree, disk.BlockPages, defaultPrefetchBlocks)
	if blockPages <= 1 {
		return 1, degree
	}
	return blockPages, ahead + 1
}

// runFullScan implements FTS/PFTS: the scan reads runs of disk.BlockPages
// pages ahead of its Degree workers, which evaluate every row of every page
// ("prefetching up to n blocks ahead ... a large block consisting of
// several consecutive pages is read at a time", §2). The workers take the
// blocks in the order they land (blockClaims), so one late block holds up
// no block behind it that has landed. Both block size and window are
// clamped against the pool; a pool too small for a two-page block disables
// block reads.
func runFullScan(p *sim.Proc, ctx *Context, spec Spec) Result {
	// A full scan reads ahead, so it waits for its grant before it starts:
	// its readahead would otherwise pin frames under no reservation.
	spec.admit(p)
	fl := newFleet(ctx, &spec)
	bc := newBlockClaims(ctx, &spec)
	file := spec.Table.File()
	fl.run(p, "fts-w", spec.Degree, func(w *worker) bool {
		page, ok := bc.claim(w)
		if !ok {
			return false
		}
		h, ok := w.bud.fetchRetry(w.p, &spec, file, page)
		if !ok {
			return false
		}
		w.matches = evalPage(ctx, &spec, &w.bud, w.a, h, page, w.matches)
		// One page is the batch quantum: settling here keeps workers
		// interleaving on the CPU at page granularity (deferring across a
		// whole prefetched block would serialize work the row-at-a-time
		// schedule ran Degree-wide), and releasing after the settle
		// preserves the old pin window.
		w.bud.settle(w.p)
		h.Release()
		return true
	})
	return fl.result()
}

// blockClaims is a full scan's work queue. The heap is cut into blocks of
// blockPages pages, each read by one ReadAhead, and the scan keeps a window
// of them, ReadaheadWindow's in-flight count wide. The workers share one
// cursor over the pages of the block claimed last; a worker that finds it
// empty claims the lowest-numbered block of the window that has landed,
// without yielding, and only when none has does it wait — for the next
// landing, counted as I/O wait. A late block (a straggler, or a burst the
// device returned out of order) thus holds up no landed block behind it.
//
// Two bounds keep the window. Block b is issued only while b < low +
// window, low being the lowest block not yet claimed, so the readahead
// never runs past a late block; and only while fewer than window issued
// blocks still have pages to hand out, so the scan holds no more pool
// frames and device depth than it held claiming pages in order. Whenever a
// worker waits, block low is issued and not landed, or is about to be, so
// a landing is due that wakes it; a worker that wakes into an aborted query
// claims nothing more. Aggregates do not depend on the order pages are
// evaluated in, so no answer does either.
//
// The window's new reads go out from an event at the instant it moves
// (refill), after whatever else is due then: a worker handed a block's
// last page may still be evaluating it, and the reads' frames evict the
// pages finished last first, so the fleet's same-instant releases go first
// and a block an update dirtied is written back whole.
type blockClaims struct {
	env  *sim.Env
	pool *buffer.Pool
	file *disk.File
	spec *Spec

	pages, blockPages, blocks int64
	window                    int64
	low, issued, done         int64   // lowest block not claimed; blocks issued; blocks handed out
	ring                      []block // block b at b % window, for low ≤ b < issued
	cur, next, end            int64   // the current block (-1: none) and its pages not yet claimed

	landed sim.Signal // what idle workers wait on
	notify func()     // landed.Notify, bound once: the hook every block read runs as it lands
	due    bool       // a refill is scheduled
	refill func()     // refillNow, bound once
}

// block is one issued block of the window: its read (nil when its pages
// were all present as it was issued), and whether a worker has claimed it.
type block struct {
	read  *sim.Completion
	taken bool
}

// newBlockClaims sizes the scan's blocks and window against its pool share
// and issues the first window.
func newBlockClaims(ctx *Context, spec *Spec) *blockClaims {
	t := spec.Table
	blockPages, window := ReadaheadWindow(spec.poolCapacity(ctx), spec.Degree)
	c := &blockClaims{
		env:        ctx.Env,
		pool:       ctx.Pool,
		file:       t.File(),
		spec:       spec,
		pages:      t.Pages(),
		blockPages: int64(blockPages),
		window:     int64(window),
		ring:       make([]block, window),
		cur:        -1,
	}
	c.blocks = (c.pages + c.blockPages - 1) / c.blockPages
	c.notify, c.refill = c.landed.Notify, c.refillNow
	c.issue()
	return c
}

// claim hands the worker its next page: from the current block, else from
// the block it claims. It reports false once every page is handed out or
// the query has aborted. Moving the window issues reads, so the worker
// settles its CPU debt first, pinning them to the row-at-a-time schedule's
// instant.
func (c *blockClaims) claim(w *worker) (int64, bool) {
	for {
		if c.next < c.end {
			c.next++
			return c.next - 1, true
		}
		if w.bud.debt > 0 {
			w.bud.settle(w.p) // another worker may claim meanwhile: look again
			continue
		}
		if c.cur >= 0 { // every page of the current block is handed out
			c.cur = -1
			c.done++
			c.moved()
		}
		if c.done == c.blocks || c.spec.aborted() {
			return 0, false
		}
		if !c.take() {
			w.bud.await(w.p, &c.landed)
		}
	}
}

// take makes the lowest-numbered landed block of the window the current
// one. It reports false when no block of the window has landed.
func (c *blockClaims) take() bool {
	for b := c.low; b < c.issued; b++ {
		blk := &c.ring[b%c.window]
		if blk.taken || blk.read != nil && !blk.read.Fired() {
			continue
		}
		blk.taken = true
		c.cur, c.next, c.end = b, b*c.blockPages, min((b+1)*c.blockPages, c.pages)
		for c.low < c.issued && c.ring[c.low%c.window].taken {
			c.low++
		}
		c.moved()
		return true
	}
	return false
}

// moved schedules a refill when the window admits a block not yet issued.
func (c *blockClaims) moved() {
	if !c.due && c.admits() {
		c.due = true
		c.env.Schedule(0, c.refill)
	}
}

// admits reports whether the window admits the next block.
func (c *blockClaims) admits() bool {
	return c.issued < min(c.low+c.window, c.blocks) && c.issued-c.done < c.window
}

// refillNow issues what the window admits, unless the query has aborted
// meanwhile: then it issues nothing and wakes the idle workers to see it.
func (c *blockClaims) refillNow() {
	c.due = false
	if c.spec.aborted() {
		c.landed.Notify()
		return
	}
	c.issue()
}

// issue reads every block the window admits. Without block reads a block
// is one page, which its worker reads itself. A block whose pages are all
// present has landed as it is issued, which wakes the idle workers.
func (c *blockClaims) issue() {
	present := false
	for ; c.admits(); c.issued++ {
		var read *sim.Completion
		if c.blockPages > 1 {
			start := c.issued * c.blockPages
			count := int(min(c.blockPages, c.pages-start))
			read = c.pool.ReadAhead(c.file, start, count, c.spec.CoordPrefetch, c.notify)
		}
		present = present || read == nil
		c.ring[c.issued%c.window] = block{read: read}
	}
	if present {
		c.landed.Notify()
	}
}

// mergeAggs folds per-worker accumulators into a Result.
func mergeAggs(kind AggKind, results []agg) Result {
	total := agg{kind: kind}
	for _, a := range results {
		total.merge(a)
	}
	return total.result()
}
