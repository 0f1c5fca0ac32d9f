// Package workload assembles complete experiment systems — device, disk
// manager, buffer pool, CPU, heap table, and C2 index — and encodes the
// paper's experimental configurations (Table 1): tables T1, T33, and T500
// (1, 33, and 500 rows per page) on HDD and SSD with a deliberately small
// buffer pool.
package workload

import (
	"fmt"

	"pioqo/internal/btree"
	"pioqo/internal/buffer"
	"pioqo/internal/device"
	"pioqo/internal/disk"
	"pioqo/internal/exec"
	"pioqo/internal/obs"
	"pioqo/internal/sim"
	"pioqo/internal/table"
)

// DeviceKind names a device model.
type DeviceKind int

const (
	SSD DeviceKind = iota
	HDD
	RAID8 // eight 15 kRPM spindles, stripe 64 KiB
	SATA  // SATA-generation SSD: 550 MB/s, beneficial depth ~16
	NVME  // datacenter NVMe: 3.5 GB/s, beneficial depth beyond 32
)

func (k DeviceKind) String() string {
	switch k {
	case SSD:
		return "SSD"
	case HDD:
		return "HDD"
	case RAID8:
		return "RAID8"
	case SATA:
		return "SATA"
	case NVME:
		return "NVME"
	default:
		return fmt.Sprintf("DeviceKind(%d)", int(k))
	}
}

// NewDevice builds a device of the given kind with its default config.
func NewDevice(env *sim.Env, kind DeviceKind) device.Device {
	return newDeviceSized(env, kind, 0)
}

// newDeviceSized builds a device whose capacity is reduced to dataBytes×4
// when that is smaller than the default capacity (never below 64 MiB). The
// paper's tables span most of their drive, and on spinning media seek time
// grows with the *fraction* of the platter crossed — so a scaled-down table
// must also get a scaled-down device, or seeks degenerate into one track's
// rotation, which a queue ordered by access time all but hides, and the
// HDD's queue-depth behaviour is lost.
// dataBytes == 0 keeps the default capacity.
func newDeviceSized(env *sim.Env, kind DeviceKind, dataBytes int64) device.Device {
	scale := func(capacity int64) int64 {
		if dataBytes <= 0 {
			return capacity
		}
		want := dataBytes * 4
		if want < 64<<20 {
			want = 64 << 20
		}
		if want < capacity {
			return want
		}
		return capacity
	}
	switch kind {
	case SSD:
		cfg := device.DefaultSSDConfig()
		cfg.Capacity = scale(cfg.Capacity)
		return device.NewSSD(env, cfg)
	case SATA:
		cfg := device.SATASSDConfig()
		cfg.Capacity = scale(cfg.Capacity)
		return device.NewSSD(env, cfg)
	case NVME:
		cfg := device.NVMeSSDConfig()
		cfg.Capacity = scale(cfg.Capacity)
		return device.NewSSD(env, cfg)
	case HDD:
		cfg := device.DefaultHDDConfig()
		cfg.Capacity = scale(cfg.Capacity)
		return device.NewHDD(env, cfg)
	case RAID8:
		// Whole stripes per spindle: a fractional last stripe would let the
		// set's size admit offsets its last stripe row maps past a child's end.
		const spindles, stripe = 8, 64 << 10
		cfg := device.HDD15KConfig()
		cfg.Capacity = scale(cfg.Capacity*spindles) / spindles / stripe * stripe
		return device.NewRAID0(env, spindles, stripe, cfg)
	default:
		panic("workload: unknown device kind " + kind.String())
	}
}

// Config is one row of the paper's Table 1.
type Config struct {
	Name        string
	RowsPerPage int
	Device      DeviceKind
}

// Table1 returns the paper's six experimental configurations.
func Table1() []Config {
	return []Config{
		{Name: "E1-HDD", RowsPerPage: 1, Device: HDD},
		{Name: "E1-SSD", RowsPerPage: 1, Device: SSD},
		{Name: "E33-HDD", RowsPerPage: 33, Device: HDD},
		{Name: "E33-SSD", RowsPerPage: 33, Device: SSD},
		{Name: "E500-HDD", RowsPerPage: 500, Device: HDD},
		{Name: "E500-SSD", RowsPerPage: 500, Device: SSD},
	}
}

// Options sizes a system. Zero values take the defaults noted on each field.
type Options struct {
	Device      DeviceKind
	Rows        int64 // table cardinality; default 200,000
	RowsPerPage int   // default 33
	PoolPages   int   // buffer pool frames; default 2048 (8 MiB)
	Cores       int   // logical cores; default 8 (the paper's machine)
	Seed        int64 // default 1
	Synthetic   bool  // use the O(1)-memory synthetic backing

	// Trace, when set, attaches a tracer for this system (one process lane
	// in a Chrome export) and wires it into the exec context, so every scan
	// the system runs records operator and worker spans.
	Trace *obs.Trace
}

func (o Options) withDefaults() Options {
	if o.Rows == 0 {
		o.Rows = 200000
	}
	if o.RowsPerPage == 0 {
		o.RowsPerPage = 33
	}
	if o.PoolPages == 0 {
		o.PoolPages = 2048
	}
	if o.Cores == 0 {
		o.Cores = 8
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// System is a ready-to-query single-table database over a simulated device.
type System struct {
	Opts    Options
	Env     *sim.Env
	Dev     device.Device
	Manager *disk.Manager
	Pool    *buffer.Pool
	CPU     *sim.Resource
	Table   table.Table
	Index   *btree.Index
	Ctx     *exec.Context

	// Obs is the system's metrics registry; the device and pool publish
	// into it at assembly time.
	Obs *obs.Registry
	// Tracer is non-nil when Options.Trace was set.
	Tracer *obs.Tracer
}

// New assembles a system per opts.
func New(opts Options) *System {
	opts = opts.withDefaults()
	env := sim.NewEnv(opts.Seed)
	heapPages := (opts.Rows + int64(opts.RowsPerPage) - 1) / int64(opts.RowsPerPage)
	leafPages := opts.Rows/btree.DefaultLeafCap + 64
	dev := newDeviceSized(env, opts.Device, (heapPages+leafPages)*disk.PageSize)
	m := disk.NewManager(dev)

	var tab table.Table
	var idx *btree.Index
	if opts.Synthetic {
		st := table.NewSynthetic(m, "T", opts.Rows, opts.RowsPerPage, opts.Seed)
		tab, idx = st, btree.NewSynthetic(m, st, 0, 0)
	} else {
		mt := table.NewMaterialized(m, "T", opts.Rows, opts.RowsPerPage, opts.Seed)
		tab, idx = mt, btree.NewMaterialized(m, mt, 0, 0)
	}

	s := &System{
		Opts:    opts,
		Env:     env,
		Dev:     dev,
		Manager: m,
		Pool:    buffer.NewPool(env, opts.PoolPages),
		CPU:     sim.NewResource(env, "cpu", opts.Cores),
		Table:   tab,
		Index:   idx,
		Obs:     obs.NewRegistry(env),
	}
	dev.Metrics().Publish(s.Obs)
	s.Pool.Publish(s.Obs)
	if opts.Trace != nil {
		s.Tracer = opts.Trace.NewTracer(env,
			fmt.Sprintf("E%d-%s", opts.RowsPerPage, opts.Device))
	}
	s.Ctx = &exec.Context{
		Env:    env,
		CPU:    s.CPU,
		Pool:   s.Pool,
		Dev:    dev,
		Costs:  exec.DefaultCPUCosts(),
		Tracer: s.Tracer,
		Obs:    s.Obs,
	}
	return s
}

// RangeFor returns predicate bounds [lo, hi] selecting approximately the
// given fraction of the table (the paper's "low and high are used to
// control the selectivity").
func (s *System) RangeFor(selectivity float64) (lo, hi int64) {
	if selectivity < 0 {
		selectivity = 0
	}
	if selectivity > 1 {
		selectivity = 1
	}
	hi = int64(selectivity*float64(s.Table.KeyDomain())+0.5) - 1
	if hi < 0 {
		hi = 0
	}
	return 0, hi
}

// Spec builds a scan spec against this system's table.
func (s *System) Spec(method exec.Method, degree int, lo, hi int64) exec.Spec {
	return exec.Spec{
		Table:  s.Table,
		Index:  s.Index,
		Lo:     lo,
		Hi:     hi,
		Method: method,
		Degree: degree,
	}
}

// Run executes a spec cold or warm. When cold, the buffer pool is flushed
// first — the paper flushes the pool at the start of each experiment.
func (s *System) Run(spec exec.Spec, cold bool) exec.Result {
	if cold {
		s.Pool.Flush()
	}
	return exec.Execute(s.Ctx, spec)
}
