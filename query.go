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
	// SortedIndexScan collects qualifying row ids from the index, sorts
	// them by heap page, and fetches each needed page exactly once. An
	// extension beyond the paper's engine (see DESIGN.md §6); enabled in
	// the optimizer via PlanOptions.EnableSortedScan.
	SortedIndexScan
)

func (m AccessMethod) String() string {
	switch m {
	case IndexScan:
		return "IndexScan"
	case SortedIndexScan:
		return "SortedIndexScan"
	default:
		return "FullTableScan"
	}
}

func (m AccessMethod) internal() exec.Method {
	switch m {
	case IndexScan:
		return exec.IndexScan
	case SortedIndexScan:
		return exec.SortedIndexScan
	default:
		return exec.FullScan
	}
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
	var name string
	switch p.Method {
	case IndexScan:
		name = "IS"
	case SortedIndexScan:
		name = "SortedIS"
	default:
		name = "FTS"
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

	// EnableSortedScan adds the sorted index scan extension to the
	// enumeration.
	EnableSortedScan bool

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

	// GreedyPlanning routes this optimization through the serving-scale
	// plan path — the parameterized selectivity-band cache backed by the
	// greedy O(n) fast path — instead of the exhaustive memoized
	// enumeration.
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
	cfg.EnableSortedScan = o.EnableSortedScan
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
	switch p.Method {
	case exec.IndexScan:
		out.Method = IndexScan
	case exec.SortedIndexScan:
		out.Method = SortedIndexScan
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

// Plan returns the optimizer's chosen plan for q without executing it.
// Queries over sharded tables are planned per shard with a merge stage on
// top (see DESIGN.md §13).
func (s *System) Plan(q Query, o PlanOptions) (plan Plan, err error) {
	if q.Table != nil && q.Table.sharded() {
		return s.planSharded(q, o)
	}
	var cfg opt.Config
	var in opt.Input
	if err := s.optConfig(q, o, &cfg, &in); err != nil {
		return Plan{}, err
	}
	var p opt.Plan
	if o.GreedyPlanning {
		p = s.pcache.Lookup(&cfg, &in)
	} else {
		p = s.memo.Lookup(&cfg, &in)
	}
	plan.setInternal(&p)
	return plan, nil
}

// Explain returns every candidate plan the optimizer considered for q,
// cheapest first.
func (s *System) Explain(q Query, o PlanOptions) ([]Plan, error) {
	var cfg opt.Config
	var in opt.Input
	if err := s.optConfig(q, o, &cfg, &in); err != nil {
		return nil, err
	}
	var plans []Plan
	for _, p := range s.memo.LookupAll(&cfg, &in) {
		plans = append(plans, fromInternalPlan(p))
	}
	return plans, nil
}

// Result reports an executed query.
type Result struct {
	// Value is the aggregate over the matching rows' C1 (MAX by default);
	// Found is false when the aggregate is NULL (no row matched — except
	// COUNT, which reports 0 and is always Found).
	Value int64
	Found bool
	// Rows is the number of matching rows.
	Rows int64
	// Plan is the plan that was executed.
	Plan Plan
	// Runtime is the query's virtual wall-clock time.
	Runtime time.Duration
	// PageReads is the number of device read requests the query issued;
	// IOThroughputMBps is the device throughput it sustained.
	PageReads        int64
	IOThroughputMBps float64
}

// Execute optimizes and runs q, returning the answer and its runtime. It
// is Query with a background context — kept as the convenience entrypoint
// for non-cancellable callers.
func (s *System) Execute(q Query, opts ...QueryOption) (Result, error) {
	return s.Query(context.Background(), q, opts...)
}

// ExecutePlan runs q with a caller-supplied plan, bypassing the optimizer.
// It is Query's lifecycle under a background context, so every option —
// WithTimeout and WithRetry included — works here too; for live
// cancellation use Query, which takes a context. Without a model there is
// no broker, so on an uncalibrated system it is the one entry point that
// runs, unleased.
func (s *System) ExecutePlan(q Query, plan Plan, opts ...QueryOption) (Result, error) {
	return s.scalar(context.Background(), q, opts, &plan)
}

// scalar runs Query's and ExecutePlan's body standalone and shapes its
// answer, with the device traffic the run drove.
func (s *System) scalar(ctx context.Context, q Query, opts []QueryOption, forced *Plan) (Result, error) {
	var res exec.Result
	lc := lifecycle{op: "query", scan: q, tables: []*Table{q.Table}, scatter: true}
	ran, err := s.run(ctx, lc, opts, func(r *queryRun, po PlanOptions) (planned, error) {
		return r.scalar(q, po, forced, &res)
	})
	if err != nil {
		return Result{}, err
	}
	// The run reset every node's meters: what they read now is its traffic,
	// drain included.
	out := scalarResult(res, ran.plan, ran.runtime)
	var bytes int64
	var elapsed sim.Duration
	for _, n := range s.nodes {
		io := n.Dev.Metrics().Snapshot()
		out.PageReads += io.Requests
		bytes += io.Bytes
		elapsed = max(elapsed, io.Elapsed)
	}
	if elapsed > 0 {
		out.IOThroughputMBps = float64(bytes) / 1e6 / elapsed.Seconds()
	}
	return out, nil
}

// scalar is the body Query, ExecutePlan and Session.Submit plug into the
// lifecycle: the aggregate scan of q under the optimizer's plan for po, or
// under the forced one (ExecutePlan's), on the table's own node — counted
// as scan-sharing interest there — or scattered over its active shards and
// merged on the coordinator. The answer lands in res.
func (r *queryRun) scalar(q Query, po PlanOptions, forced *Plan, res *exec.Result) (planned, error) {
	if !q.Table.sharded() {
		po.ShareParties = r.share(q.Table.one(), po.ShareParties)
	}
	var plan Plan
	var err error
	switch {
	case forced == nil:
		plan, err = r.optimize(q, po)
	case forced.Method != FullTableScan && !q.Table.Indexed():
		err = fmt.Errorf("%w: table %q has no index", ErrInvalidQuery, q.Table.Name())
	default:
		plan = *forced
	}
	if err != nil {
		return planned{}, err
	}
	if !q.Table.sharded() {
		r.pin(&plan)
		return planned{plan, int(plan.depth), func(p *sim.Proc) {
			part := q.Table.one()
			spec := r.spec(part, q, &plan)
			r.attachAdaptive(&spec, q, plan)
			*res = exec.RunScan(p, r.context(part.node), spec)
		}}, nil
	}
	active := r.scatter(q, &plan)
	if len(active) == 0 {
		// Every shard pruned: no rows anywhere, no device touched. COUNT
		// of nothing is 0 and found, as in the unsharded executor.
		res.Found = q.Agg == Count
		return planned{plan: plan}, nil
	}
	return planned{plan, int(plan.depth), func(p *sim.Proc) {
		gs := exec.GatherSpec{Shards: r.scans(q, plan, active), Agg: q.Agg.internal(), Pruned: plan.pruned, QID: r.qid}
		*res = exec.RunGather(p, gs).Result
	}}, nil
}

// scalarResult shapes a scalar body's answer under the plan it ran and its
// Runtime.
func scalarResult(res exec.Result, plan Plan, runtime time.Duration) Result {
	return Result{Value: res.Value, Found: res.Found, Rows: res.RowsMatched, Plan: plan, Runtime: runtime}
}

type queryOptions struct {
	cold      bool
	prefetch  int
	plan      PlanOptions
	telemetry *QueryTelemetry
	adaptive  bool
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

// WithPlanOptions forwards optimizer options through Query/Execute.
func WithPlanOptions(po PlanOptions) QueryOption { return func(o *queryOptions) { o.plan = po } }

// PlannerStats snapshots the plan caches' traffic counters: the exact-match
// memo on the default path, and the parameterized band cache serving greedy
// planning.
type PlannerStats struct {
	// MemoHits and MemoMisses count the exact-key memo's traffic.
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

// PlannerStats reports the plan caches' cumulative hit/miss counters.
func (s *System) PlannerStats() PlannerStats {
	mh, mm := s.memo.Stats()
	cs := s.pcache.Stats()
	return PlannerStats{
		MemoHits:          mh,
		MemoMisses:        mm,
		BandHits:          cs.Hits,
		BandMisses:        cs.Misses,
		BandRevalidations: cs.Revalidations,
		GreedyPlans:       cs.GreedyPlans,
		GreedyFallbacks:   cs.Fallbacks,
	}
}
