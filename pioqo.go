// Package pioqo is a parallel-I/O-aware query optimization engine — a full
// reproduction of "Parallel I/O Aware Query Optimization" (Ghodsnia, Bowman,
// Nica; SIGMOD 2014).
//
// The package bundles a deterministic virtual-time storage stack (HDD, SSD,
// and RAID0 device models; buffer pool; heap tables; B+-tree index), the
// paper's four access methods (full table scan and index scan, serial and
// intra-query parallel, with asynchronous prefetching), and its two I/O cost
// models: the classic band-size-only DTT model and the queue-depth-aware
// QDTT model that is the paper's contribution. A calibration pass measures
// the attached device and produces the QDTT model; the cost-based optimizer
// then chooses access method and parallel degree per query.
//
// A minimal session:
//
//	sys := pioqo.New(pioqo.Config{Device: pioqo.SSD})
//	tab, _ := sys.CreateTable("orders", 200_000, 33)
//	cal, _ := sys.Calibrate(pioqo.CalibrationOptions{})
//	res, _ := sys.Run(context.Background(), pioqo.Query{Table: tab, Low: 0, High: 999})
//	fmt.Println(res.Value, res.Runtime)
//
// Everything runs in simulated time: Run's Result.Runtime is the
// modelled wall-clock of the query on the modelled device, typically
// computed in well under a millisecond of host time.
package pioqo

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"pioqo/internal/broker"
	"pioqo/internal/btree"
	"pioqo/internal/cost"
	"pioqo/internal/exec"
	"pioqo/internal/node"
	"pioqo/internal/obs"
	"pioqo/internal/opt"
	"pioqo/internal/sim"
	"pioqo/internal/stats"
	"pioqo/internal/table"
	"pioqo/internal/workload"
)

// DeviceKind selects the simulated storage device backing a System.
type DeviceKind = workload.DeviceKind

// Available device models: a consumer PCIe SSD (~1.5 GB/s sequential,
// ~200 K IOPS at queue depth 32), a commodity 7200 RPM hard drive
// (~110 MB/s sequential), a stripe set of eight 15 kRPM spindles, a
// SATA-generation SSD (beneficial queue depth ~16), and a datacenter NVMe
// drive (beneficial depth beyond 32) — the "range of storage technologies"
// the paper argues a calibrated cost model must span.
const (
	SSD   = workload.SSD
	HDD   = workload.HDD
	RAID8 = workload.RAID8
	SATA  = workload.SATA
	NVME  = workload.NVME
)

// Config sizes the machine: the device, pool, cores, seed, shard count and
// hedge delay a System is assembled with. Zero values take the documented
// defaults. Everything else is set through its own API after New — a fault
// schedule with InjectFaults, the event log with EnableEventLog — or per
// table and per query: partitioning with WithPartition, a pinned degree
// with WithStaticDegree.
type Config struct {
	// Device is the storage model to attach. Default SSD.
	Device DeviceKind

	// PoolPages is the buffer pool size in 4 KiB frames. Default 16384
	// (64 MiB, the paper's small-pool setting).
	PoolPages int

	// Cores is the number of logical CPU cores. Default 8.
	Cores int

	// Seed makes all data generation and device behaviour reproducible.
	// Default 1.
	Seed int64

	// Shards is the number of simulated cluster nodes. Default 1 — the
	// single-node engine, byte-identical to pre-cluster builds. With N > 1
	// every node gets its own device, buffer pool, CPU cores, and
	// fault-injection domain (all on one virtual clock); tables are
	// partitioned across nodes at creation and queries run scatter-gather
	// (see DESIGN.md §13). PoolPages and Cores size each node.
	Shards int

	// HedgeDelay is the straggler-hedge re-issue threshold: a shard read
	// still outstanding after this long gets a speculative duplicate, one
	// more after each further delay with no copy landed (three at most),
	// and the first completion wins. Default 1ms (tuned for SSD-class
	// media; raise it for spinning devices). Only sharded systems hedge.
	// The delay is never on a query's critical path by itself: Runtime
	// ends when the query's process exits, and the losing copies and
	// unfired timers run out after it, off the query's clock.
	HedgeDelay time.Duration
}

// System is a single-user analytical engine over a simulated cluster of
// one or more nodes, each with its own device, buffer pool, and CPU cores
// on one shared virtual clock. It is not safe for concurrent use by
// multiple host goroutines; queries within it execute with intra-query
// parallelism (and, when sharded, cross-node scatter-gather) in virtual
// time.
type System struct {
	env *sim.Env

	// nodes holds the cluster's storage stacks, one per shard. Node 0 is
	// the coordinator: it publishes its device and pool instruments into
	// the registry, hosts the scan-share registry and the broker's supply,
	// and is the node single-node paths run on. Every access to a device,
	// pool, injector, or CPU resource goes through a node — the fields the
	// pre-cluster System carried are gone, and the node-assembly row of
	// boundaries_test.go keeps this package from building their values.
	nodes []*node.Node

	costs exec.CPUCosts
	cores int
	seed  int64

	// hedge is the straggler-hedge re-issue threshold (0 on a single-node
	// system, which never hedges).
	hedge sim.Duration

	// noDegrade keeps the broker's credit supply at the healthy depth under
	// channel loss: the reference arm of TestDegradedPlanBeatsHealthyDepth,
	// set by that test and by nothing else.
	noDegrade bool

	tables map[string]*Table
	model  *cost.QDTT

	// memo caches plan enumerations across queries; depthOne caches the
	// model's depth-oblivious projection for DepthOblivious planning. Both
	// are dropped whenever a calibration installs a new model.
	memo     *opt.Memo
	depthOne *cost.DTT

	// pcache is the serving-scale parameterized plan cache; Plan routes
	// through it instead of the memo under PlanOptions.GreedyPlanning.
	pcache *opt.ParamCache

	// broker is the resource-governance layer (internal/broker) that admits
	// every query, built lazily from the calibrated model and dropped with
	// it.
	broker *broker.Broker

	// reg is the engine's one observability recorder: every layer of every
	// node records its decisions into it, and the engine event log is its
	// ring (off by default). observer, when set, receives per-query
	// telemetry.
	reg      *obs.Registry
	observer Observer

	// nextQID numbers queries for event attribution and advances whether or
	// not the event log is on — pure host-side state, invisible to the
	// simulation.
	nextQID int64
}

// New builds a system per cfg.
func New(cfg Config) *System {
	if cfg.PoolPages == 0 {
		cfg.PoolPages = 16384
	}
	if cfg.Cores == 0 {
		cfg.Cores = 8
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	env := sim.NewEnv(cfg.Seed)
	s := &System{
		env:    env,
		costs:  exec.DefaultCPUCosts(),
		cores:  cfg.Cores,
		seed:   cfg.Seed,
		tables: make(map[string]*Table),
		memo:   opt.NewMemo(),
		pcache: opt.NewParamCache(),
		reg:    obs.NewRegistry(env),
	}
	if cfg.Shards > 1 {
		hd := cfg.HedgeDelay
		if hd == 0 {
			hd = time.Millisecond
		}
		s.hedge = sim.Duration(hd)
	}
	// Node assembly replicates the pre-cluster construction sequence (the
	// fault injector always wraps the raw device; unarmed it is pure
	// passthrough, adding no events and drawing no randomness), so a
	// one-shard system is byte-identical to the single-device builds. Only
	// the coordinator hosts the scan-share registry: circulating scans
	// serve unsharded tables, which live on it.
	for i := 0; i < cfg.Shards; i++ {
		s.nodes = append(s.nodes, node.New(env, s.reg, i, node.Config{
			Kind:       cfg.Device,
			PoolPages:  cfg.PoolPages,
			Cores:      cfg.Cores,
			Shares:     i == 0,
			HedgeDelay: s.hedge,
		}))
	}
	return s
}

// coord returns the coordinator node (node 0): the stack single-node
// execution runs on and the one whose instruments the registry publishes.
func (s *System) coord() *node.Node { return s.nodes[0] }

// Shards reports the number of simulated cluster nodes.
func (s *System) Shards() int { return len(s.nodes) }

// Table is a heap table with two integer columns, C1 (aggregated) and C2
// (uniform by default, optionally Zipf-skewed, optionally indexed), plus
// padding captured by the rows-per-page parameter. On a sharded system the
// table is partitioned: each node holds one horizontal slice (its own heap
// file, C2 index, and histogram on its own device), and queries over it
// scatter-gather.
type Table struct {
	sys  *System
	name string

	// kind and cuts describe the partitioning of a sharded table: cuts
	// holds the ascending upper-exclusive range bounds (len(parts)-1) for
	// the range kinds, nil for hash. Unsharded tables have one part.
	kind PartitionKind
	cuts []int64

	parts []tablePart
}

// tablePart is one node's slice of a table. An empty partition (a range
// cut that caught no rows) keeps its node but has a nil tab.
type tablePart struct {
	node *node.Node
	tab  table.Table
	idx  *btree.Index
	hist *stats.Histogram // nil for synthetic (uniform-by-construction) tables
}

// sharded reports whether the table is partitioned across multiple nodes.
func (t *Table) sharded() bool { return len(t.parts) > 1 }

// one returns the sole part of an unsharded table — the accessor every
// single-node path uses after its sharded() guard.
func (t *Table) one() *tablePart { return &t.parts[0] }

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Rows returns the table cardinality (summed across shards).
func (t *Table) Rows() int64 {
	var n int64
	for i := range t.parts {
		if t.parts[i].tab != nil {
			n += t.parts[i].tab.Rows()
		}
	}
	return n
}

// Pages returns the heap size in pages (summed across shards).
func (t *Table) Pages() int64 {
	var n int64
	for i := range t.parts {
		if t.parts[i].tab != nil {
			n += t.parts[i].tab.Pages()
		}
	}
	return n
}

// Indexed reports whether the C2 index has been created.
func (t *Table) Indexed() bool {
	for i := range t.parts {
		if t.parts[i].idx != nil {
			return true
		}
	}
	return false
}

// Partitioning reports how a sharded table spreads rows across nodes;
// meaningful only when the system has more than one shard.
func (t *Table) Partitioning() PartitionKind { return t.kind }

// ShardRows reports each shard's row count, in node order — the balance a
// partitioning achieved (one entry for unsharded tables). Rebalancing a
// skewed range partition is recreating the table with
// PartitionRangeBalanced.
func (t *Table) ShardRows() []int64 {
	out := make([]int64, len(t.parts))
	for i := range t.parts {
		if t.parts[i].tab != nil {
			out[i] = t.parts[i].tab.Rows()
		}
	}
	return out
}

// TableOption configures CreateTable.
type TableOption func(*tableOptions)

type tableOptions struct {
	synthetic bool
	noIndex   bool
	seed      int64
	zipf      float64
	part      PartitionKind
}

// WithSyntheticData stores no row values: every key in [0, rows) occurs
// once, C1 is a hash, and which page holds which rows is a keyed
// pseudo-random permutation of the pages, all computed from the table seed
// and all invertible, so arbitrarily large tables use O(1) memory and the
// rows of a key range lie scattered over the heap as a uniform random
// column's would. Use for large-scale sweeps; the default materialized
// backing is better for verifying answers.
func WithSyntheticData() TableOption { return func(o *tableOptions) { o.synthetic = true } }

// WithoutIndex skips creating the non-clustered C2 index; index scans on
// the table become unavailable and the optimizer will only consider full
// scans.
func WithoutIndex() TableOption { return func(o *tableOptions) { o.noIndex = true } }

// WithTableSeed overrides the data-generation seed for this table.
func WithTableSeed(seed int64) TableOption { return func(o *tableOptions) { o.seed = seed } }

// WithZipfData draws C2 from a Zipf distribution with the given exponent
// (> 1) instead of uniformly — heavily skewed toward small keys. The
// engine builds an equi-width histogram on C2 at load time and the
// optimizer estimates predicate cardinalities from it, so plans stay sound
// on skewed data. Incompatible with WithSyntheticData.
func WithZipfData(exponent float64) TableOption {
	return func(o *tableOptions) { o.zipf = exponent }
}

// WithPartition sets how this table spreads rows across the nodes of a
// sharded system. Default PartitionHash. It has no effect on a
// single-shard system, but a kind other than PartitionHash, PartitionRange
// and PartitionRangeBalanced fails CreateTable on any shard count.
func WithPartition(k PartitionKind) TableOption {
	return func(o *tableOptions) { o.part = k }
}

// CreateTable builds a heap of rows rows at rowsPerPage occupancy together
// with (unless disabled) the non-clustered C2 index, allocating both on the
// system device.
func (s *System) CreateTable(name string, rows int64, rowsPerPage int, options ...TableOption) (*Table, error) {
	if name == "" {
		return nil, errors.New("pioqo: empty table name")
	}
	if _, dup := s.tables[name]; dup {
		return nil, fmt.Errorf("pioqo: table %q already exists", name)
	}
	if rows <= 0 || rowsPerPage <= 0 {
		return nil, fmt.Errorf("pioqo: table %q: rows=%d rowsPerPage=%d", name, rows, rowsPerPage)
	}
	o := tableOptions{seed: s.seed}
	for _, opt := range options {
		opt(&o)
	}
	if o.part < PartitionHash || o.part > PartitionRangeBalanced {
		return nil, fmt.Errorf("pioqo: table %q: unknown partition kind %d", name, int(o.part))
	}
	if o.synthetic && o.zipf > 0 {
		return nil, fmt.Errorf("pioqo: table %q: synthetic data is uniform by construction; WithZipfData needs a materialized table", name)
	}
	if o.zipf != 0 && o.zipf <= 1 {
		return nil, fmt.Errorf("pioqo: table %q: zipf exponent %f must exceed 1", name, o.zipf)
	}
	if len(s.nodes) > 1 {
		return s.createShardedTable(name, rows, rowsPerPage, o)
	}

	mgr := s.coord().Manager
	heapPages := (rows + int64(rowsPerPage) - 1) / int64(rowsPerPage)
	need := heapPages + rows/btree.DefaultLeafCap + 8
	if need > mgr.Free() {
		return nil, fmt.Errorf("pioqo: table %q needs %d pages, device has %d free",
			name, need, mgr.Free())
	}

	t := &Table{sys: s, name: name, parts: make([]tablePart, 1)}
	part := &t.parts[0]
	part.node = s.coord()
	switch {
	case o.synthetic:
		st := table.NewSynthetic(mgr, name, rows, rowsPerPage, o.seed)
		part.tab = st
		if !o.noIndex {
			part.idx = btree.NewSynthetic(mgr, st, 0, 0)
		}
	default:
		var mt *table.Materialized
		if o.zipf > 0 {
			mt = table.NewMaterializedZipf(mgr, name, rows, rowsPerPage, o.seed, o.zipf)
		} else {
			mt = table.NewMaterialized(mgr, name, rows, rowsPerPage, o.seed)
		}
		part.tab = mt
		if !o.noIndex {
			part.idx = btree.NewMaterialized(mgr, mt, 0, 0)
		}
		part.hist = stats.BuildHistogram(mt, 0)
	}
	s.tables[name] = t
	return t, nil
}

// TableByName returns a previously created table, or false.
func (s *System) TableByName(name string) (*Table, bool) {
	t, ok := s.tables[name]
	return t, ok
}

// Tables returns the names of all created tables, sorted.
func (s *System) Tables() []string {
	names := make([]string, 0, len(s.tables))
	for name := range s.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// FlushBufferPool drops every unpinned page on every node, modelling a
// cold cache cluster-wide.
func (s *System) FlushBufferPool() {
	for _, n := range s.nodes {
		n.Pool.Flush()
	}
}

// BufferPoolResident reports how many of t's heap pages are cached,
// summed across the nodes holding its partitions.
func (s *System) BufferPoolResident(t *Table) int64 {
	var n int64
	for i := range t.parts {
		part := &t.parts[i]
		if part.tab != nil {
			n += part.node.Pool.Resident(part.tab.File())
		}
	}
	return n
}

// DeviceName reports the attached device model (all nodes run the same).
func (s *System) DeviceName() string { return s.coord().Dev.Name() }

// nodeContext builds the executor context addressing one node's stack.
func (s *System) nodeContext(n *node.Node) *exec.Context {
	return &exec.Context{Env: s.env, CPU: n.CPU, Pool: n.Pool, Dev: n.Dev,
		Costs: s.costs, Obs: s.reg, Shares: n.Shares, Scratch: n.Scratch}
}

// Now reports the system's virtual clock.
func (s *System) Now() time.Duration { return time.Duration(s.env.Now()) }
