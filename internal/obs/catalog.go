package obs

// The catalog: every instrument and every event type the engine records, in
// one place. Metric and EventType values are minted here and nowhere else —
// their fields are unexported — so an instrument or event the catalog does
// not list is a compile error at the call site, not a lint finding.
//
// Instrument names follow "<subsystem>.<measure>", with a unit suffix (_us,
// _ns) when the measure is not a plain count. An event row names its JSONL
// event, its two operands ("" = unused and omitted), and the counters it
// feeds: every Emit of the row adds 1, operand A or operand B to each.

// Metric identifies one instrument of the catalog.
type Metric struct{ id uint8 }

// metricNames is the instrument table, indexed by Metric.id; id 0 is the
// zero Metric and names nothing.
var metricNames = []string{""}

func metric(name string) Metric {
	metricNames = append(metricNames, name)
	return Metric{uint8(len(metricNames) - 1)}
}

// Name reports the instrument's registry name.
func (m Metric) Name() string { return metricNames[m.id] }

var (
	// internal/device — published by Metrics.Publish (the coordinator node's
	// device only).
	MetricDeviceQueueDepth = metric("device.queue_depth") // gauge: outstanding requests
	MetricDeviceRequests   = metric("device.requests")    // counter: completed requests
	MetricDeviceBytes      = metric("device.bytes")       // counter: completed bytes
	MetricDeviceLatencyNs  = metric("device.latency_ns")  // counter: summed request latency
	MetricDeviceLatencyUs  = metric("device.latency_us")  // histogram: request latency

	// internal/buffer — published by Pool.Publish (the coordinator node's
	// pool only).
	MetricBufferHits            = metric("buffer.hits")
	MetricBufferMisses          = metric("buffer.misses")
	MetricBufferJoinedLoads     = metric("buffer.joined_loads")
	MetricBufferPrefetchReads   = metric("buffer.prefetch_reads")   // counter: device ops issued
	MetricBufferPrefetchedPages = metric("buffer.prefetched_pages") // counter: pages covered by those ops
	MetricBufferEvictions       = metric("buffer.evictions")
	MetricBufferDirtyWrites     = metric("buffer.dirty_writes")
	MetricBufferReadErrors      = metric("buffer.read_errors")
	MetricBufferCachedPages     = metric("buffer.cached_pages") // gauge: resident frames

	// internal/buffer scan sharing.
	MetricScanShareAttaches = metric("scanshare.attaches")
	MetricScanShareDetaches = metric("scanshare.detaches")
	MetricScanShareLaps     = metric("scanshare.laps")

	// internal/broker.
	MetricBrokerCreditsTotal     = metric("broker.credits_total") // gauge: calibrated supply
	MetricBrokerCreditsInUse     = metric("broker.credits_in_use")
	MetricBrokerWorkersInUse     = metric("broker.workers_in_use")
	MetricBrokerAdmissions       = metric("broker.admissions")
	MetricBrokerSharedAdmissions = metric("broker.shared_admissions") // joined a live circulating scan, no credits
	MetricBrokerReclaims         = metric("broker.reclaims")
	MetricBrokerAdmissionWaitUs  = metric("broker.admission_wait_us") // histogram

	// internal/exec.
	MetricExecScans       = metric("exec.scans")
	MetricExecRowsMatched = metric("exec.rows_matched")
	MetricExecReadFaults  = metric("exec.read_faults")

	// internal/opt. Optimizations and plans_enumerated are also counted
	// directly by every full enumeration, which emits no event.
	MetricOptOptimizations   = metric("opt.optimizations")
	MetricOptPlansEnumerated = metric("opt.plans_enumerated")
	MetricOptMemoHits        = metric("opt.memo_hits")
	MetricOptMemoMisses      = metric("opt.memo_misses")

	// internal/opt parameterized cache + greedy fast path (serving plan
	// path). Band metrics count selectivity-band cache traffic; greedy
	// metrics split fast-path decisions from crossover fallbacks to full
	// enumeration.
	MetricOptBandHits          = metric("opt.band_hits")
	MetricOptBandMisses        = metric("opt.band_misses")
	MetricOptBandRevalidations = metric("opt.band_revalidations") // epoch drift survived by winner/runner re-pricing
	MetricOptGreedyPlans       = metric("opt.greedy_plans")
	MetricOptGreedyFallbacks   = metric("opt.greedy_fallbacks")

	// Sharded scatter-gather execution. Scatters counts gather queries;
	// partials counts per-shard scans they fanned out; pruned counts shards
	// a range-partitioned query skipped entirely; hedge counters track the
	// straggler-hedging policy's speculative duplicate reads and how many
	// of them beat the original.
	MetricShardScatters    = metric("shard.scatters")
	MetricShardPartials    = metric("shard.partials")
	MetricShardPruned      = metric("shard.pruned")
	MetricShardHedgeIssued = metric("shard.hedge_issued")
	MetricShardHedgeWins   = metric("shard.hedge_wins")
)

// EventType identifies one kind of engine event.
type EventType struct{ id uint8 }

// operand selects what an event adds to a counter it feeds.
type operand uint8

const (
	byOne operand = iota
	byA
	byB
)

// feed is one counter an event row bumps on every Emit.
type feed struct {
	m  Metric
	by operand
}

func (f feed) amount(a, b int64) int64 {
	switch f.by {
	case byA:
		return a
	case byB:
		return b
	}
	return 1
}

func count(m Metric) feed { return feed{m, byOne} }
func addA(m Metric) feed  { return feed{m, byA} }
func addB(m Metric) feed  { return feed{m, byB} }

// eventDesc is one event row: JSONL name, operand names, counters fed.
type eventDesc struct {
	name, a, b string
	feeds      []feed
}

// events is the event table, indexed by EventType.id; id 0 is the zero
// EventType, never emitted.
var events = []eventDesc{{}}

func event(name, a, b string, feeds ...feed) EventType {
	events = append(events, eventDesc{name, a, b, feeds})
	return EventType{uint8(len(events) - 1)}
}

// Describe reports the event's JSONL name and its A and B operand names.
func (t EventType) Describe() (name, a, b string) {
	d := events[t.id]
	return d.name, d.a, d.b
}

// The event table, grouped by emitting subsystem.
var (
	// Query lifecycle (pioqo session layer).
	EvQueryStart = event("query.start", "est_pages", "budget")
	EvQueryDone  = event("query.done", "pages", "runtime_ns")

	// internal/broker: admission control and credit re-brokering.
	EvAdmissionEnqueue = event("admission.enqueue", "demand", "")
	EvAdmissionGrant   = event("admission.grant", "granted", "wait_ns", count(MetricBrokerAdmissions))
	EvCreditsReclaim   = event("credits.reclaim", "reclaimed", "held", addA(MetricBrokerReclaims))
	EvLeaseRelease     = event("lease.release", "credits", "pool_pages")
	EvSupplyDegrade    = event("supply.degrade", "supply", "total")

	// internal/exec: worker lifecycle and fault retries.
	EvWorkerStart  = event("worker.start", "worker", "")
	EvWorkerExit   = event("worker.exit", "worker", "")
	EvReadRetry    = event("read.retry", "page", "attempt", count(MetricExecReadFaults))
	EvRetryBackoff = event("retry.backoff", "page", "backoff_ns")

	// internal/fault: injected device behaviour.
	EvFaultError     = event("fault.error", "offset", "")
	EvFaultStraggler = event("fault.straggler", "offset", "delay_ns")
	EvFaultThrottle  = event("fault.throttle", "outstanding", "penalty_ns")

	// internal/buffer: pool housekeeping the executor cannot see, and
	// circulating shared scans.
	EvFrameUninstall  = event("frame.uninstall", "page", "epoch")
	EvScanShareAttach = event("scanshare.attach", "join_block", "consumers", count(MetricScanShareAttaches))
	EvScanShareDetach = event("scanshare.detach", "blocks", "consumers", count(MetricScanShareDetaches))
	EvScanShareLap    = event("scanshare.lap", "laps", "consumers", count(MetricScanShareLaps))

	// internal/opt: the memo's plan-cache traffic. A replay counts as an
	// optimization, so per-query diffs do not depend on a warm memo.
	EvPlanCacheHit = event("plancache.hit", "plans", "",
		count(MetricOptMemoHits), count(MetricOptOptimizations), addA(MetricOptPlansEnumerated))
	EvPlanCacheMiss = event("plancache.miss", "plans", "", count(MetricOptMemoMisses))

	// internal/opt: parameterized cache and greedy fast path. A revalidation
	// that keeps its entry (B = 1) serves the query; one that does not (B =
	// 0) falls back, and the fallback's enumeration counts the optimization.
	EvPlanBandHit = event("plancache.band_hit", "band", "stable",
		count(MetricOptBandHits), count(MetricOptOptimizations))
	EvPlanBandMiss   = event("plancache.band_miss", "band", "", count(MetricOptBandMisses))
	EvPlanRevalidate = event("plancache.revalidate", "band", "kept",
		addB(MetricOptBandRevalidations), addB(MetricOptOptimizations))
	EvGreedyPlan = event("planner.greedy", "band", "candidates",
		count(MetricOptGreedyPlans), count(MetricOptOptimizations))
	EvGreedyFallback = event("planner.fallback", "band", "candidates", count(MetricOptGreedyFallbacks))

	// internal/exec gather operator + internal/fault hedger: sharded
	// scatter-gather lifecycle and straggler hedging.
	EvShardScatter = event("shard.scatter", "shards", "pruned",
		count(MetricShardScatters), addA(MetricShardPartials), addB(MetricShardPruned))
	EvShardPartial    = event("shard.partial", "shard", "rows")
	EvShardHedgeIssue = event("shard.hedge.issue", "offset", "delay_ns", count(MetricShardHedgeIssued))
	EvShardHedgeWin   = event("shard.hedge.win", "offset", "latency_ns", count(MetricShardHedgeWins))
	EvShardGatherDone = event("shard.gather.done", "shards", "rows")
)
