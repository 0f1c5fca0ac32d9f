package pioqo

import (
	"context"
	"fmt"
	"time"

	"pioqo/internal/exec"
	"pioqo/internal/node"
	"pioqo/internal/opt"
	"pioqo/internal/sim"
)

// Aggregate selects the aggregate function a query computes over C1.
type Aggregate int

// Supported aggregates. Max is the paper's probe; the others exercise the
// same access paths with identical I/O behaviour.
const (
	Max Aggregate = iota
	Min
	Count // COUNT(*), never NULL
	Sum
)

func (a Aggregate) String() string { return a.internal().String() }

func (a Aggregate) internal() exec.AggKind {
	switch a {
	case Min:
		return exec.AggMin
	case Count:
		return exec.AggCount
	case Sum:
		return exec.AggSum
	default:
		return exec.AggMax
	}
}

// Query is the paper's probe query over a table:
//
//	SELECT <Agg>(C1) FROM t WHERE C2 BETWEEN Low AND High
//
// Agg defaults to Max, the aggregate the paper evaluates.
type Query struct {
	Table *Table
	Low,
	High int64
	Agg Aggregate
}

// AccessMethod names a plan's access path family.
type AccessMethod int

const (
	// FullTableScan reads every heap page (FTS; PFTS when parallel).
	FullTableScan AccessMethod = iota
	// IndexScan walks the C2 index and fetches qualifying rows (IS/PIS).
	IndexScan
)

func (m AccessMethod) String() string {
	if m == IndexScan {
		return "IndexScan"
	}
	return "FullTableScan"
}

func (m AccessMethod) internal() exec.Method {
	if m == IndexScan {
		return exec.IndexScan
	}
	return exec.FullScan
}

// Plan is a costed access path chosen or enumerated by the optimizer.
type Plan struct {
	Method AccessMethod
	// Degree is the intra-query parallel degree (1 = serial).
	Degree int
	// Prefetch is the per-worker prefetch depth for index scans, chosen by
	// the optimizer when PlanOptions.EnablePrefetchPlanning is set.
	Prefetch int
	// Shared marks the circulating-scan attach path: instead of scanning
	// the heap privately, the query attaches to the table's shared
	// producer, rides one full lap, and splits the sequential device work
	// with every other attached query. Enumerated when
	// PlanOptions.ShareParties ≥ 2 (sessions set it from live interest).
	Shared bool
	// depth is the device queue depth the optimizer priced the plan at
	// (opt.Plan.Depth); a session leases no more credits than it.
	depth int32
	// EstimatedCost is the optimizer's total cost estimate; EstimatedIO
	// and EstimatedCPU are its components. All are virtual durations.
	EstimatedCost time.Duration
	EstimatedIO   time.Duration
	EstimatedCPU  time.Duration
	// EstimatedRows is the expected number of matching rows.
	EstimatedRows float64

	// Fanout is the number of shards a scatter-gather plan touches after
	// partition pruning; 0 for single-node plans. When > 0, Method,
	// Degree, and Prefetch describe the slowest shard's choice (the one
	// the makespan estimate is pinned to) and the cost fields price the
	// whole scatter plus the coordinator's merge.
	Fanout int

	// Join is a join's whole choice, nil for a scan. A join's plan is its
	// build side's shape, and it prints as its JoinPlan.
	Join *JoinPlan

	// scatter carries the per-shard internal plans of a scatter-gather
	// plan (nil for single-node plans, keeping Plan comparable); pruned
	// counts the shards partition pruning skipped.
	scatter *scatterPlan
	pruned  int
}

// scatterPlan is the private payload of a sharded Plan: the per-shard
// plans, parallel to active (the shard ids that survived pruning).
type scatterPlan struct {
	plans  []opt.Plan
	active []int
}

func (p Plan) String() string {
	if p.Join != nil {
		return p.Join.String()
	}
	name := "FTS"
	if p.Method == IndexScan {
		name = "IS"
	}
	if p.Degree > 1 {
		name = fmt.Sprintf("P%s%d", name, p.Degree)
	}
	if p.Shared {
		name += "+shared"
	}
	if p.Fanout > 0 {
		name = fmt.Sprintf("scatter%d·%s", p.Fanout, name)
	}
	return fmt.Sprintf("%s (cost %v, ~%.0f rows)", name, p.EstimatedCost, p.EstimatedRows)
}

// PlanOptions tune optimization.
type PlanOptions struct {
	// DepthOblivious prices I/O with the DTT model (the queue-depth-1
	// slice of the calibrated QDTT) — the paper's "old optimizer". The
	// default uses the full QDTT model.
	DepthOblivious bool

	// MaxDegree caps the enumerated parallel degrees. Default 32.
	MaxDegree int

	// EnablePrefetchPlanning lets the optimizer also choose a per-worker
	// prefetch depth for index scans, pricing the combined queue depth
	// degree × prefetch with the QDTT model (§3.3). It will then often
	// prefer a few workers with deep prefetch over a large worker fleet.
	EnablePrefetchPlanning bool

	// QueueBudget caps the device queue depth a plan may generate, for
	// running multiple queries concurrently (§4.3: "when multiple queries
	// are running ... the optimizer needs to pass a lower queue depth").
	// Zero means uncapped.
	QueueBudget int

	// ShareParties, when ≥ 2, tells the optimizer that that many
	// concurrent queries (this one included) are interested in the same
	// table, enabling the shared circulating-scan candidate — one lap of
	// sequential I/O split over the parties. Sessions set it automatically
	// from live per-table interest; standalone planning may set it to
	// price the attach path by hand.
	ShareParties int

	// GreedyPlanning is ignored: every plan goes through the parameterized
	// selectivity-band cache, backed by the greedy O(n) fast path.
	//
	// Deprecated: kept for the frozen bench/ suite; it changes nothing.
	GreedyPlanning bool
}

// planDegrees and planPrefetch are the enumeration grid: MaxDegree keeps a
// prefix of the degrees, EnablePrefetchPlanning adds the prefetch depths.
// planGridKeys holds the flattened key plan caches identify each such grid
// by, indexed by how many degrees are kept (minus one) and by whether
// prefetch is planned. All three are read-only after init, so planning
// allocates no slice and formats no key.
var (
	planDegrees  = []int{1, 2, 4, 8, 16, 32}
	planPrefetch = []int{2, 4, 8, 16, 32}
	planGridKeys = func() (keys [6][2]string) {
		for i := range keys {
			keys[i][0] = opt.GridKey(planDegrees[:i+1], nil)
			keys[i][1] = opt.GridKey(planDegrees[:i+1], planPrefetch)
		}
		return keys
	}()
)

// planConfig fills cfg with the optimizer configuration for one node's
// stack under o — the per-shard unit scatter-gather planning fans out over.
// Configs are filled in place, field by field: one is two hundred bytes,
// Plan is called at serving rates, and a composite literal would be built
// aside and then copied over. Every field is assigned, so a config an
// earlier call filled keeps nothing of it (TestPlanConfigAssignsEveryField).
func (s *System) planConfig(n *node.Node, o PlanOptions, cfg *opt.Config) error {
	if s.model == nil {
		return fmt.Errorf("%w: optimization needs the calibrated cost model; call Calibrate first", ErrNotCalibrated)
	}
	cfg.Model = s.model
	if o.DepthOblivious {
		cfg.Model = s.depthOneModel()
	}
	cfg.Costs = s.costs
	cfg.Cores = s.cores
	cfg.PoolPages = int64(n.Pool.Capacity())
	cfg.QueueBudget = o.QueueBudget
	cfg.ShareParties = o.ShareParties
	cfg.Obs = s.reg
	// MaxDegree keeps the degrees not above it; degree 1 always survives.
	kept := len(planDegrees)
	for o.MaxDegree > 0 && kept > 1 && planDegrees[kept-1] > o.MaxDegree {
		kept--
	}
	cfg.Degrees = planDegrees[:kept:kept]
	if o.EnablePrefetchPlanning {
		cfg.PrefetchDepths = planPrefetch
		cfg.GridKey = planGridKeys[kept-1][1]
	} else {
		cfg.PrefetchDepths = nil
		cfg.GridKey = planGridKeys[kept-1][0]
	}
	return nil
}

// optConfig fills cfg and in with the optimizer's view of q on its
// single-node table under o.
func (s *System) optConfig(q Query, o PlanOptions, cfg *opt.Config, in *opt.Input) error {
	if q.Table == nil {
		return fmt.Errorf("%w: no table", ErrInvalidQuery)
	}
	if q.Table.sharded() {
		return fmt.Errorf("%w: table %q is partitioned across %d nodes; this operation is single-node only",
			ErrInvalidQuery, q.Table.Name(), len(q.Table.parts))
	}
	if err := s.planConfig(s.coord(), o, cfg); err != nil {
		return err
	}
	*in = q.Table.one().input(q)
	return nil
}

// input is the optimizer's view of q's range over one table part.
func (p *tablePart) input(q Query) opt.Input {
	return opt.Input{Table: p.tab, Index: p.idx, Pool: p.node.Pool, Stats: p.hist, Lo: q.Low, Hi: q.High}
}

// internal is the executable shape of a plan: what opt.Plan.Spec reads.
func (p Plan) internal() opt.Plan {
	return opt.Plan{Method: p.Method.internal(), Degree: p.Degree, Prefetch: p.Prefetch, Shared: p.Shared}
}

func fromInternalPlan(p opt.Plan) Plan {
	var out Plan
	out.setInternal(&p)
	return out
}

// setInternal assigns the fields p carries, in place: System.Plan fills its
// result this way, where a literal would be built aside and copied twice.
func (out *Plan) setInternal(p *opt.Plan) {
	out.Method = FullTableScan
	if p.Method == exec.IndexScan {
		out.Method = IndexScan
	}
	out.Degree = p.Degree
	out.Prefetch = p.Prefetch
	out.Shared = p.Shared
	out.depth = p.Depth
	out.EstimatedCost = time.Duration(p.TotalMicros * 1e3)
	out.EstimatedIO = time.Duration(p.IOMicros * 1e3)
	out.EstimatedCPU = time.Duration(p.CPUMicros * 1e3)
	out.EstimatedRows = p.EstRows
}

// Plan returns the optimizer's chosen plan for req without executing it:
// for a group-by or an update, the plan of the scan that locates its rows;
// for a join, its build side's plan with the whole choice in Plan.Join.
// Queries over sharded tables are planned per shard with a merge stage on
// top (see DESIGN.md §13). Plan dispatches on req's kind without keeping
// it, so planning a Query allocates nothing for the request.
func (s *System) Plan(req Request, o PlanOptions) (Plan, error) {
	switch q := req.(type) {
	case Query:
		return s.planScan(q, o)
	case GroupByQuery:
		return s.planScan(q.scan(), o)
	case UpdateQuery:
		return s.planScan(q.scan(), o)
	case JoinQuery:
		jp, err := s.planJoin(q, o)
		if err != nil {
			return Plan{}, err
		}
		return fromJoinPlan(jp), nil
	}
	return Plan{}, fmt.Errorf("%w: no request", ErrInvalidQuery)
}

// planScan is Plan for one range scan.
func (s *System) planScan(q Query, o PlanOptions) (plan Plan, err error) {
	if q.Table != nil && q.Table.sharded() {
		return s.planSharded(q, o)
	}
	var cfg opt.Config
	var in opt.Input
	if err := s.optConfig(q, o, &cfg, &in); err != nil {
		return Plan{}, err
	}
	p := s.pcache.Lookup(&cfg, &in)
	plan.setInternal(&p)
	return plan, nil
}

// Explain returns every candidate plan the optimizer considered for q,
// cheapest first: the full enumeration at q's constants and the pool's
// current residency, ranked without the plan cache.
func (s *System) Explain(q Query, o PlanOptions) ([]Plan, error) {
	var cfg opt.Config
	var in opt.Input
	if err := s.optConfig(q, o, &cfg, &in); err != nil {
		return nil, err
	}
	var plans []Plan
	for _, p := range opt.Enumerate(cfg, in) {
		plans = append(plans, fromInternalPlan(p))
	}
	return plans, nil
}

// Result reports an executed request of any kind; a field that belongs to
// one kind of operation says so.
type Result struct {
	// Value is the aggregate over the matching rows' C1 (MAX by default; a
	// join's is over probe-side C1 across joined pairs); Found is false
	// when the aggregate is NULL (no row matched — except COUNT, which
	// reports 0 and is always Found).
	Value int64
	Found bool
	// Rows counts what the operation produced: the matching rows of a
	// Query, the rows grouped by a GroupByQuery, the joined pairs of a
	// JoinQuery, the rows an UpdateQuery changed.
	Rows int64
	// Groups is a group-by's output, sorted by Key.
	Groups []GroupRow
	// BuildRows and ProbeRows count the rows each side of a join's scans
	// produced.
	BuildRows, ProbeRows int64
	// PagesWritten counts an update's dirty-page write-backs on its node
	// while it ran (evictions plus the final checkpoint).
	PagesWritten int64
	// Plan is the plan that was executed.
	Plan Plan
	// Runtime is the query's virtual wall-clock time.
	Runtime time.Duration
	// PageReads is the number of device requests the run issued on every
	// node, drain included; IOThroughputMBps is the device throughput it
	// sustained. Run meters them; a Submission's result leaves them zero,
	// since its session's queries share the devices.
	PageReads        int64
	IOThroughputMBps float64
}

// Execute is Run under a background context.
//
// Deprecated: use Run. Kept for the frozen bench/ suite.
func (s *System) Execute(q Query, opts ...QueryOption) (Result, error) {
	return s.Run(context.Background(), q, opts...)
}

// ExecutePlan is Run under a background context with WithPlan(plan).
//
// Deprecated: use Run and WithPlan. Kept for the frozen bench/ suite.
func (s *System) ExecutePlan(q Query, plan Plan, opts ...QueryOption) (Result, error) {
	return s.Run(context.Background(), q, append(opts[:len(opts):len(opts)], WithPlan(plan))...)
}

func (q Query) request() lifecycle {
	return lifecycle{op: "query", scan: q, tables: []*Table{q.Table}, scatter: true}
}

// body is a Query's operation: the aggregate scan of q, counted as
// scan-sharing interest on a single node.
func (q Query) body(r *queryRun, po PlanOptions) (planned, error) {
	if q.Table.sharded() {
		// Until a gather answers: every shard pruned, no rows anywhere. COUNT
		// of nothing is 0 and found, as in the unsharded executor.
		r.res.Found = q.Agg == Count
	} else {
		po.ShareParties = r.share(q.Table.one(), po.ShareParties)
	}
	return r.rangeScan(q, po, func(p *sim.Proc, plan *Plan, shards []exec.ShardScan) {
		var res exec.Result
		if shards == nil {
			part := q.Table.one()
			res = exec.RunScan(p, r.context(part.node), r.spec(part, q, plan))
		} else {
			res = exec.RunGather(p, exec.GatherSpec{Shards: shards, Agg: q.Agg.internal(), Pruned: plan.pruned, QID: r.qid}).Result
		}
		r.res.Value, r.res.Found, r.res.Rows = res.Value, res.Found, res.RowsMatched
	})
}

type queryOptions struct {
	forced    *Plan // WithPlan's
	cold      bool
	prefetch  int
	plan      PlanOptions
	telemetry *QueryTelemetry
	degree    int
	timeout   time.Duration
	retry     RetryPolicy

	// noShare keeps a session scan off the circulating scan: the private
	// reference arm of sharing_test.go, which no exported option sets.
	noShare bool
}

// Cold flushes the buffer pool before running, modelling a cold cache.
func Cold() QueryOption { return func(o *queryOptions) { o.cold = true } }

// WithPrefetch sets the per-worker table-page prefetch depth for index
// scans (§3.3 of the paper).
func WithPrefetch(n int) QueryOption { return func(o *queryOptions) { o.prefetch = n } }

// WithPlanOptions sets the options the query is optimized under.
func WithPlanOptions(po PlanOptions) QueryOption { return func(o *queryOptions) { o.plan = po } }

// PlannerStats snapshots the plan cache's traffic counters.
//
// Deprecated: read the registry's opt.band_hits, opt.band_misses,
// opt.band_revalidations, opt.greedy_plans and opt.greedy_fallbacks from
// MetricsSince. Kept for the frozen bench/ suite.
type PlannerStats struct {
	// MemoHits and MemoMisses always read 0: the exact-key memo is gone.
	//
	// Deprecated: kept for the frozen bench/ suite; read the band counters.
	MemoHits, MemoMisses int64
	// BandHits and BandMisses count parameterized-cache lookups that bound
	// constants into a cached band entry vs. planned a shape × band fresh.
	BandHits, BandMisses int64
	// BandRevalidations counts pool-epoch drifts survived by re-pricing
	// only the cached winner and runner-up.
	BandRevalidations int64
	// GreedyPlans counts decisions the O(n) fast path made alone;
	// GreedyFallbacks counts crossover-forced full enumerations.
	GreedyPlans, GreedyFallbacks int64
}

// PlannerStats reports the plan cache's cumulative hit/miss counters.
//
// Deprecated: read the opt.band_* and opt.greedy_* counters from
// MetricsSince.
func (s *System) PlannerStats() PlannerStats {
	cs := s.pcache.Stats()
	return PlannerStats{
		BandHits:          cs.Hits,
		BandMisses:        cs.Misses,
		BandRevalidations: cs.Revalidations,
		GreedyPlans:       cs.GreedyPlans,
		GreedyFallbacks:   cs.Fallbacks,
	}
}
