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
	// PoolPages is the buffer-pool reservation granted with the lease; 0
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

	// Tune, when set, makes the scan elastic: workers consult the tuner at
	// batch boundaries and the fleet grows or shrinks to its target (demand
	// full scans and index scans; shared riders stay static). Degree then
	// names the *initial* fleet; growth is bounded by Tune.MaxDegree and
	// the readahead clamps budget against that cap. Nil (the default) is a
	// fleet that never retunes, byte-identical to pre-adaptive runs.
	Tune Tuner
}

// aborted reports whether the query's control has tripped. Nil-safe.
func (s *Spec) aborted() bool { return s.Ctl.Aborted() }

// poolCapacity is the pool capacity this scan's clamps budget against: the
// lease's page reservation when governed, the whole pool otherwise. It is
// read after admit, when the reservation has been granted.
func (s *Spec) poolCapacity(ctx *Context) int {
	c := ctx.Pool.Capacity()
	if s.Gov != nil {
		if share := s.Gov.PoolPages(); share > 0 && share < c {
			c = share
		}
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
// more than one read in flight — a parallel fleet, per-worker prefetch, an
// elastic fleet: that depth is what its grant is, and its fleet's startup
// and pins would otherwise run under no grant. A serial plan meets its gate,
// if at all, at its first miss.
func (s *Spec) admitDeep(p *sim.Proc) {
	if s.Degree > 1 || s.PrefetchPerWorker > 0 || s.Tune != nil {
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
	if spec.Tune != nil {
		// Completion and abort alike cancel outstanding speculation and
		// detach the controller.
		defer spec.Tune.FinishScan()
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
	if window := capacity/2 - degree; blockPages > window {
		blockPages = max(window, 1)
	}
	return blockPages, liveWindow(capacity, degree, blockPages, prefetchBlocks)
}

// defaultPrefetchBlocks is how many block reads a full scan keeps in flight
// ahead of its workers before the pool clamp.
const defaultPrefetchBlocks = 4

// ReadaheadWindow reports the readahead geometry a full scan runs with on a
// pool of capacity frames at the given degree: the pages per block read,
// and the most block reads it has outstanding — the blocks the prefetcher
// may run ahead of the workers plus the one the workers are waiting on,
// which is what a scan held up by its device keeps in flight. The fleet
// does not appear in that number except through the pool clamp (workers
// consume pages the prefetcher has already asked for), so this, not the
// degree, is the device queue depth the optimizer prices a full scan at.
// On a pool too small for any readahead the workers read their own pages,
// one each.
func ReadaheadWindow(capacity, degree int) (blockPages, inFlight int) {
	blockPages, ahead := clampReadahead(capacity, degree, disk.BlockPages, defaultPrefetchBlocks)
	if blockPages <= 1 {
		return 1, degree
	}
	return blockPages, ahead + 1
}

// runFullScan implements FTS/PFTS: an asynchronous block prefetcher reads
// runs of disk.BlockPages pages and stays up to defaultPrefetchBlocks of
// them ahead while Degree workers consume heap pages in order, each
// evaluating every row on the page ("prefetching up to n blocks ahead ... a
// large block consisting of several consecutive pages is read at a time",
// §2). Both are clamped against the pool; a pool too small for a two-page
// block disables block reads.
func runFullScan(p *sim.Proc, ctx *Context, spec Spec) Result {
	t := spec.Table
	pages := t.Pages()
	file := t.File()

	nextPage := int64(0) // shared work queue: next unclaimed heap page
	var onClaim func(wp *sim.Proc, bud *cpuBudget, page int64)
	var wakeup *sim.Completion // the parked prefetcher's, when block reads are on

	// A full scan reads ahead, so it waits for its grant before it starts:
	// its prefetcher would otherwise pin frames under no reservation.
	spec.admit(p)

	// An elastic scan clamps its readahead geometry against the growth cap,
	// not the initial degree: the block layout is fixed for the scan's
	// lifetime, so it must already leave room for a fully grown fleet's pins.
	fl := newFleet(ctx, &spec)
	capacity := spec.poolCapacity(ctx)
	blockPages, prefetchBlocks := clampReadahead(capacity, fl.max, disk.BlockPages, defaultPrefetchBlocks)

	if blockPages > 1 {
		// Flow-control window: the prefetcher stays at most prefetchBlocks
		// block-reads ahead of the hindmost block the workers have begun
		// consuming. A plain credit counter (issued − reached) avoids any
		// ordering assumptions between prefetcher and workers. The window
		// is re-evaluated at every issue against the live degree
		// (liveWindow) — the clampReadahead fix for adaptively grown fleets
		// on tiny pools. A static fleet never has more live workers than the
		// degree the window was clamped at, so its window is that constant.
		window := func() int64 {
			return int64(liveWindow(capacity, fl.live, blockPages, prefetchBlocks))
		}
		blocks := (pages + int64(blockPages) - 1) / int64(blockPages)
		reached := make([]bool, blocks)
		var issued, reachedCount int64
		ctx.Env.Go("fts-prefetcher", func(pf *sim.Proc) {
			ps := ctx.Tracer.StartTrack(spec.Span, "fts-prefetcher",
				obs.KV("blocks", blocks), obs.KV("block_pages", blockPages))
			for b := int64(0); b < blocks; b++ {
				for issued-reachedCount >= window() && !spec.aborted() {
					w := window()
					if nb := b + w; spec.Tune != nil && nb < blocks &&
						w < int64(prefetchBlocks) {
						// A live window squeezed below the planned one (a
						// grown fleet's pins ate into it) is the next-stripe
						// guess: the stripe just past the window is a block
						// flow control dropped, offered to the speculator,
						// which pre-issues it only within its confidence and
						// pool budget. The prefetcher itself reads block b
						// the moment the window opens, so the guess must
						// reach past the window. A wrong guess (abort) is
						// canceled; a right one overlaps the stall this park
						// represents, and the trimmed run issue below skips
						// whatever the speculator already landed. A healthy
						// full-width window gets no speculation — the runs
						// it issues already saturate the device, and
						// out-of-band reads would only fragment them.
						start := nb * int64(blockPages)
						count := blockPages
						if start+int64(count) > pages {
							count = int(pages - start)
						}
						spec.Tune.SpeculateRun(file, start, count)
					}
					wakeup = sim.NewCompletion(ctx.Env)
					pf.Wait(wakeup)
				}
				// An aborted scan's workers stop claiming blocks, so the
				// prefetcher would otherwise park forever on its flow-control
				// window; it stands down instead.
				if spec.aborted() {
					break
				}
				start := b * int64(blockPages)
				count := blockPages
				if start+int64(count) > pages {
					count = int(pages - start)
				}
				// Tuned scans trim like coordinated ones: the speculator may
				// have landed part of this run already, and re-reading it
				// would double the device traffic speculation saved.
				if spec.CoordPrefetch || spec.Tune != nil {
					ctx.Pool.PrefetchRunTrimmed(file, start, count)
				} else {
					ctx.Pool.PrefetchRun(file, start, count)
				}
				issued++
			}
			ps.End()
		})
		// Claiming the first page of a block wakes the prefetcher — a
		// device-coupled action, so the claimer settles its CPU debt first,
		// pinning the wakeup to the row-at-a-time schedule's instant.
		// Claims within an already-reached block stay debt-deferred. The
		// settle blocks, so another worker can reach the same block while
		// this one sleeps — the re-check keeps each block counted once,
		// which the prefetcher's credit flow control depends on.
		onClaim = func(wp *sim.Proc, bud *cpuBudget, page int64) {
			b := page / int64(blockPages)
			if !reached[b] {
				bud.settle(wp)
				if !reached[b] {
					reached[b] = true
					reachedCount++
					if wakeup != nil && !wakeup.Fired() {
						wakeup.Fire()
					}
				}
			}
		}
	}

	fl.run(p, "fts-w", spec.Degree, func(w *worker) bool {
		page := nextPage
		if page >= pages {
			return false
		}
		nextPage = page + 1
		if onClaim != nil {
			onClaim(w.p, &w.bud, page)
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
	// On abort the prefetcher may be parked on its flow-control window with
	// no worker left to wake it; one final fire lets it observe the abort
	// and exit. A completed scan's wakeups have all fired already, so this
	// never adds events to a healthy run.
	if wakeup != nil && !wakeup.Fired() {
		wakeup.Fire()
	}
	return fl.result()
}

// mergeAggs folds per-worker accumulators into a Result.
func mergeAggs(kind AggKind, results []agg) Result {
	total := agg{kind: kind}
	for _, a := range results {
		total.merge(a)
	}
	return total.result()
}
