package exec

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"pioqo/internal/btree"
	"pioqo/internal/buffer"
	"pioqo/internal/device"
	"pioqo/internal/disk"
	"pioqo/internal/fault"
	"pioqo/internal/golden"
	"pioqo/internal/sim"
	"pioqo/internal/table"
)

// The schedule golden pins the executor's virtual-time behaviour exactly:
// one line per (device, driver shape) with the answer, the runtime in ns and
// the device and pool traffic. The experiment goldens pin degree-1 runs
// exactly but contended runs only to a tolerance, and pin nothing for
// shared-rider, gather or abort schedules; this file pins all of
// them to the nanosecond, so a refactor of the worker loops that moves one
// charge, settle, fetch or release across another shows up as a diff.
//
// testdata/schedule.golden was generated from the executor as it stood
// before the worker loops were folded onto one fleet harness. Regenerate
// with -update (internal/golden) only for a change that is meant to move the
// schedule, and say so in the commit.

// schedWorld builds a fixed single-table world on dev ("ssd" or "hdd").
func schedWorld(t *testing.T, dev string, rows int64) *world {
	return newWorld(t, worldOpts{dev: dev, rows: rows, rpp: 33, poolPages: 1024})
}

// schedJoinWorld is newJoinWorld on a chosen device, without an injector.
func schedJoinWorld(dev string) *joinWorld {
	env := sim.NewEnv(505)
	d := schedDevice(env, dev)
	m := disk.NewManager(d)
	build := table.NewMaterialized(m, "build", 3000, 33, 21)
	probe := table.NewMaterialized(m, "probe", 12000, 33, 22)
	return &joinWorld{
		env:      env,
		build:    build,
		probe:    probe,
		buildIdx: btree.NewMaterialized(m, build, 0, 0),
		probeIdx: btree.NewMaterialized(m, probe, 0, 0),
		ctx: &Context{
			Env:   env,
			CPU:   sim.NewResource(env, "cpu", 8),
			Pool:  buffer.NewPool(env, 1024),
			Dev:   d,
			Costs: DefaultCPUCosts(),
		},
	}
}

func schedDevice(env *sim.Env, dev string) device.Device {
	if dev == "hdd" {
		return device.NewHDD(env, device.DefaultHDDConfig())
	}
	return device.NewSSD(env, device.DefaultSSDConfig())
}

// schedShards hash-partitions a fixed rowset over four nodes on one env.
func schedShards(dev string) (*sim.Env, []*shardNode) {
	env := sim.NewEnv(606)
	cols := table.DrawColumns(12000, 9)
	parts, _ := cols.Partition(4, func(k int64) int { return table.HashShard(k, 4) })
	nodes := make([]*shardNode, len(parts))
	for i, part := range parts {
		d := schedDevice(env, dev)
		m := disk.NewManager(d)
		name := fmt.Sprintf("t#%d", i)
		tab := table.NewMaterializedFrom(m, name, 33, part.C1, part.C2, part.Domain)
		nodes[i] = &shardNode{
			ctx: &Context{
				Env:   env,
				CPU:   sim.NewResource(env, "cpu-"+name, 8),
				Pool:  buffer.NewPool(env, 1024),
				Dev:   d,
				Costs: DefaultCPUCosts(),
			},
			tab: tab,
			idx: btree.NewMaterialized(m, tab, 0, 0),
		}
	}
	return env, nodes
}

// traffic formats the runtime and the device and pool counters of one run.
func traffic(rt sim.Duration, io device.Summary, pool buffer.Stats) string {
	return fmt.Sprintf("runtime_ns=%d io_req=%d io_bytes=%d hits=%d misses=%d",
		int64(rt), io.Requests, io.Bytes, pool.Hits, pool.Misses)
}

func scanLine(r Result) string {
	return fmt.Sprintf("value=%d found=%v rows=%d %s",
		r.Value, r.Found, r.RowsMatched, traffic(r.Runtime, r.IO, r.Pool))
}

func joinLine(r JoinResult) string {
	return fmt.Sprintf("build=%d probe=%d pairs=%d %s", r.BuildRows, r.ProbeRows, r.Pairs, scanLine(r.Result))
}

// groupsSum folds the group list into an order-sensitive checksum.
func groupsSum(gs []Group) int64 {
	var h int64
	for _, g := range gs {
		h = h*1000003 + g.Key*31 + g.Value*7 + g.Rows
	}
	return h
}

func groupByLine(ctx *Context, r GroupByResult) string {
	return fmt.Sprintf("groups=%d sum=%d rows=%d %s", len(r.Groups), groupsSum(r.Groups), r.Rows,
		traffic(r.Runtime, ctx.Dev.Metrics().Snapshot(), ctx.Pool.Stats))
}

// ledger reports what an aborted run left behind; both must be zero.
func ledger(err error, ctx *Context) string {
	return fmt.Sprintf("err=%q pinned=%d live=%d", fmt.Sprint(err), ctx.Pool.Pinned(), ctx.Env.LiveProcs())
}

// deadlineAt arms a control whose deadline lands num/den of the way through
// a run that takes healthy when left alone.
func deadlineAt(env *sim.Env, healthy sim.Duration, num, den int64) *fault.Control {
	ctl := fault.NewControl(env)
	ctl.SetDeadline(env.Now().Add(healthy * sim.Duration(num) / sim.Duration(den)))
	return ctl
}

// gatherTraffic sums the shard nodes' device and pool counters.
func gatherTraffic(start sim.Time, env *sim.Env, nodes []*shardNode) string {
	var io device.Summary
	var pool buffer.Stats
	for _, n := range nodes {
		s := n.ctx.Dev.Metrics().Snapshot()
		io.Requests += s.Requests
		io.Bytes += s.Bytes
		pool.Hits += n.ctx.Pool.Stats.Hits
		pool.Misses += n.ctx.Pool.Stats.Misses
	}
	return traffic(sim.Duration(env.Now()-start), io, pool)
}

// gatherShards is the four-shard scatter of one spec shape.
func gatherShards(nodes []*shardNode, m Method, degree int, lo, hi int64, ctl *fault.Control) []ShardScan {
	var out []ShardScan
	for _, n := range nodes {
		out = append(out, ShardScan{Ctx: n.ctx, Spec: Spec{Table: n.tab, Index: n.idx,
			Lo: lo, Hi: hi, Method: m, Degree: degree, Agg: AggSum, Ctl: ctl}})
	}
	return out
}

// gatherPins sums the pins the shard pools still hold.
func gatherPins(nodes []*shardNode) (pins int) {
	for _, n := range nodes {
		pins += n.ctx.Pool.Pinned()
	}
	return pins
}

// runGatherGroupBy drives the gather group-by from a coordinator process.
func runGatherGroupBy(env *sim.Env, shards []ShardScan) GroupByResult {
	var res GroupByResult
	env.Go("gather", func(p *sim.Proc) { res = RunGatherGroupBy(p, shards, 0, 500, AggSum, 0) })
	env.Run()
	return res
}

// updateWorld is a 20000-row world (607 heap pages) over a pool of the given
// frames: 256 makes the scan's evictions write dirty pages back, 1024 leaves
// every write to the checkpoint.
func updateWorld(t *testing.T, dev string, poolPages int) *world {
	return newWorld(t, worldOpts{dev: dev, rows: 20000, rpp: 33, poolPages: poolPages})
}

// updateLine runs s as an update adding 1 to C1 of every matching row, then
// checkpoints, the way the root's UpdateQuery does, and renders the rows
// changed, a checksum of C1 over the whole table, the pages written and the
// traffic of scan and checkpoint together.
func updateLine(w *world, s Spec) (string, Result) {
	s.Update = func(id int64) { w.tab.SetC1(id, w.tab.RowAt(id).C1+1) }
	var res Result
	rt, io, pool := metered(w.ctx, "update", func(p *sim.Proc) {
		res = RunScan(p, w.ctx, s)
		w.ctx.Pool.FlushDirty(p)
	})
	res.Runtime = rt
	var sum int64
	for r := int64(0); r < w.tab.Rows(); r++ {
		sum += w.tab.RowAt(r).C1
	}
	return fmt.Sprintf("rows=%d sum=%d written=%d %s", res.RowsMatched, sum, pool.DirtyWrites, traffic(rt, io, pool)), res
}

// updateRow is one update on a fresh updateWorld.
func updateRow(name string, poolPages int, mk func(w *world) Spec) scheduleRow {
	return scheduleRow{name, func(t *testing.T, dev string) string {
		w := updateWorld(t, dev, poolPages)
		line, _ := updateLine(w, mk(w))
		return line
	}}
}

type scheduleRow struct {
	name string
	run  func(t *testing.T, dev string) string
}

// scanRow is a single scan on a fresh 20000-row world.
func scanRow(name string, mk func(w *world) Spec) scheduleRow {
	return scheduleRow{name, func(t *testing.T, dev string) string {
		w := schedWorld(t, dev, 20000)
		return scanLine(Execute(w.ctx, mk(w)))
	}}
}

// abortScanRow runs mk healthy, then again on a fresh world with a deadline
// num/den of the way through.
func abortScanRow(name string, rows int64, num, den int64, mk func(w *world) Spec) scheduleRow {
	return scheduleRow{name, func(t *testing.T, dev string) string {
		h := schedWorld(t, dev, rows)
		healthy := Execute(h.ctx, mk(h))
		w := schedWorld(t, dev, rows)
		s := mk(w)
		s.Ctl = deadlineAt(w.env, healthy.Runtime, num, den)
		res := Execute(w.ctx, s)
		return scanLine(res) + " " + ledger(res.Err, w.ctx)
	}}
}

// sharedRiders runs three riders attaching 0, 1 and 3 ms into one lap, all
// under the control mkCtl arms on the run's env (nil for none).
func sharedRiders(t *testing.T, dev string, mkCtl func(*sim.Env) *fault.Control) (string, *world) {
	w := schedWorld(t, dev, 20000)
	w.withShares()
	w.ctx.Dev.Metrics().Reset()
	w.ctx.Pool.ResetStats()
	var ctl *fault.Control
	if mkCtl != nil {
		ctl = mkCtl(w.env)
	}
	start := w.env.Now()
	var parts [3]string
	for i, delay := range []sim.Duration{0, sim.Millisecond, 3 * sim.Millisecond} {
		i, delay := i, delay
		w.env.Go(fmt.Sprintf("rider%d", i), func(p *sim.Proc) {
			p.Sleep(delay)
			s := w.spec(FullScan, 1, 100, 15000)
			s.Shared, s.QID, s.Ctl = true, int64(i+1), ctl
			t0 := p.Now()
			r := RunScan(p, w.ctx, s)
			parts[i] = fmt.Sprintf("r%d=(%d,%d,%dns)", i, r.Value, r.RowsMatched, int64(p.Now()-t0))
		})
	}
	w.env.Run()
	line := strings.Join(parts[:], " ") + " " +
		traffic(sim.Duration(w.env.Now()-start), w.ctx.Dev.Metrics().Snapshot(), w.ctx.Pool.Stats)
	if ctl != nil {
		line += fmt.Sprintf(" %s shares=%d", ledger(ctl.Err(), w.ctx), w.ctx.Shares.Live())
	}
	return line, w
}

func scheduleRows() []scheduleRow {
	joinSpec := func(w *joinWorld, method JoinMethod, degree int) JoinSpec {
		s := w.spec(200, 1699, FullScan, IndexScan, degree)
		s.Method = method
		return s
	}
	joinRow := func(name string, method JoinMethod, degree int) scheduleRow {
		return scheduleRow{name, func(t *testing.T, dev string) string {
			w := schedJoinWorld(dev)
			return joinLine(ExecuteJoin(w.ctx, joinSpec(w, method, degree)))
		}}
	}
	joinAbortRow := func(name string, method JoinMethod, num, den int64) scheduleRow {
		return scheduleRow{name, func(t *testing.T, dev string) string {
			h := schedJoinWorld(dev)
			healthy := ExecuteJoin(h.ctx, joinSpec(h, method, 4))
			w := schedJoinWorld(dev)
			s := joinSpec(w, method, 4)
			ctl := deadlineAt(w.env, healthy.Runtime, num, den)
			s.Build.Ctl, s.Probe.Ctl = ctl, ctl
			res := ExecuteJoin(w.ctx, s)
			return joinLine(res) + " " + ledger(res.Err, w.ctx)
		}}
	}
	groupBySpec := func(w *world) GroupBySpec {
		return GroupBySpec{Scan: w.spec(FullScan, 8, 500, 14999), GroupWidth: 1000, Agg: AggSum}
	}
	pis := func(degree, pf int, lo, hi int64) func(*world) Spec {
		return func(w *world) Spec {
			s := w.spec(IndexScan, degree, lo, hi)
			s.PrefetchPerWorker = pf
			return s
		}
	}
	return []scheduleRow{
		scanRow("pfts-d8", func(w *world) Spec { return w.spec(FullScan, 8, 100, 15000) }),
		scanRow("pis-d32", pis(32, 0, 100, 2099)),
		scanRow("pis-d8-pf8", pis(8, 8, 100, 2099)),
		// Three qualifying entries for four workers: the fourth chunk is
		// empty and its worker is never spawned.
		scanRow("pis-d4-narrow", func(w *world) Spec {
			e := w.idx.LeafEntries(3, nil)
			return w.spec(IndexScan, 4, e[5].Key, e[7].Key)
		}),
		joinRow("hashjoin-d8", HashJoin, 8),
		joinRow("nljoin-d1", IndexNLJoin, 1),
		joinRow("nljoin-d4", IndexNLJoin, 4),
		{"groupby-pfts-d8", func(t *testing.T, dev string) string {
			w := schedWorld(t, dev, 20000)
			return groupByLine(w.ctx, ExecuteGroupBy(w.ctx, groupBySpec(w)))
		}},
		{"shared-riders-3", func(t *testing.T, dev string) string {
			line, _ := sharedRiders(t, dev, nil)
			return line
		}},
		{"gather4-scalar", func(t *testing.T, dev string) string {
			env, nodes := schedShards(dev)
			start := env.Now()
			res := executeGather(GatherSpec{Agg: AggSum, Shards: gatherShards(nodes, FullScan, 4, 100, 9000, nil)})
			return fmt.Sprintf("value=%d found=%v rows=%d %s", res.Value, res.Found, res.RowsMatched,
				gatherTraffic(start, env, nodes))
		}},
		{"gather4-ordered", func(t *testing.T, dev string) string {
			env, nodes := schedShards(dev)
			start := env.Now()
			var sum int64
			res := executeGather(GatherSpec{
				Emit:   func(id int64, r table.Row) { sum = sum*1000003 + r.C2*31 + r.C1 },
				Shards: gatherShards(nodes, IndexScan, 1, 100, 1500, nil)})
			return fmt.Sprintf("emitsum=%d rows=%d %s", sum, res.RowsMatched, gatherTraffic(start, env, nodes))
		}},
		{"gather4-groupby", func(t *testing.T, dev string) string {
			env, nodes := schedShards(dev)
			start := env.Now()
			res := runGatherGroupBy(env, gatherShards(nodes, FullScan, 4, 100, 9000, nil))
			return fmt.Sprintf("groups=%d sum=%d rows=%d %s", len(res.Groups), groupsSum(res.Groups), res.Rows,
				gatherTraffic(start, env, nodes))
		}},

		// Updates: a wide one whose scan outruns a 256-frame pool, so
		// eviction writes dirty pages before the checkpoint writes the rest,
		// a narrow one the checkpoint alone writes, and an index scan whose
		// 2 000 rows revisit pages the 256-frame pool has already written.
		updateRow("update-pfts-d8-evict", 256, func(w *world) Spec { return w.spec(FullScan, 8, 100, 15000) }),
		updateRow("update-is-d1-narrow", 1024, func(w *world) Spec { return w.spec(IndexScan, 1, 100, 299) }),
		updateRow("update-is-d1-evict", 256, func(w *world) Spec { return w.spec(IndexScan, 1, 100, 2099) }),

		// One deadline abort per driver, each leaving nothing behind.
		abortScanRow("abort-pfts-d8", 20000, 1, 2, func(w *world) Spec { return w.spec(FullScan, 8, 100, 15000) }),
		abortScanRow("abort-pis-d8-pf8", 20000, 1, 2, pis(8, 8, 100, 2099)),
		{"abort-shared-riders", func(t *testing.T, dev string) string {
			_, h := sharedRiders(t, dev, nil)
			healthy := sim.Duration(h.env.Now())
			line, _ := sharedRiders(t, dev, func(env *sim.Env) *fault.Control {
				return deadlineAt(env, healthy, 1, 2)
			})
			return line
		}},
		joinAbortRow("abort-hashjoin-d4", HashJoin, 1, 2),
		joinAbortRow("abort-nljoin-d4-early", IndexNLJoin, 1, 100),
		joinAbortRow("abort-nljoin-d4-late", IndexNLJoin, 3, 4),
		{"abort-groupby-pfts-d8", func(t *testing.T, dev string) string {
			h := schedWorld(t, dev, 20000)
			healthy := ExecuteGroupBy(h.ctx, groupBySpec(h))
			w := schedWorld(t, dev, 20000)
			s := groupBySpec(w)
			// Only the scan polls the control, not the driver's merge of
			// the partials after it, so the deadline lands early in the scan.
			s.Scan.Ctl = deadlineAt(w.env, healthy.Runtime, 1, 10)
			res := ExecuteGroupBy(w.ctx, s)
			return groupByLine(w.ctx, res) + " " + ledger(res.Err, w.ctx)
		}},
		{"abort-update-pfts-d8", func(t *testing.T, dev string) string {
			h := updateWorld(t, dev, 256)
			_, healthy := updateLine(h, h.spec(FullScan, 8, 100, 15000))
			w := updateWorld(t, dev, 256)
			s := w.spec(FullScan, 8, 100, 15000)
			// The checkpoint runs after the scan, outside the control, so the
			// deadline lands a quarter of the way through the whole update.
			s.Ctl = deadlineAt(w.env, healthy.Runtime, 1, 4)
			line, res := updateLine(w, s)
			return line + " " + ledger(res.Err, w.ctx)
		}},
		{"abort-gather4-scalar", func(t *testing.T, dev string) string {
			henv, hnodes := schedShards(dev)
			executeGather(GatherSpec{Agg: AggSum, Shards: gatherShards(hnodes, FullScan, 4, 100, 9000, nil)})
			env, nodes := schedShards(dev)
			ctl := deadlineAt(env, sim.Duration(henv.Now()), 1, 2)
			res := executeGather(GatherSpec{Agg: AggSum, Shards: gatherShards(nodes, FullScan, 4, 100, 9000, ctl)})
			return fmt.Sprintf("value=%d found=%v rows=%d %s err=%q pinned=%d live=%d",
				res.Value, res.Found, res.RowsMatched, gatherTraffic(0, env, nodes),
				fmt.Sprint(res.Err), gatherPins(nodes), env.LiveProcs())
		}},
		{"abort-gather4-groupby", func(t *testing.T, dev string) string {
			henv, hnodes := schedShards(dev)
			runGatherGroupBy(henv, gatherShards(hnodes, FullScan, 4, 100, 9000, nil))
			env, nodes := schedShards(dev)
			ctl := deadlineAt(env, sim.Duration(henv.Now()), 1, 2)
			res := runGatherGroupBy(env, gatherShards(nodes, FullScan, 4, 100, 9000, ctl))
			return fmt.Sprintf("groups=%d sum=%d rows=%d %s err=%q pinned=%d live=%d",
				len(res.Groups), groupsSum(res.Groups), res.Rows, gatherTraffic(0, env, nodes),
				fmt.Sprint(res.Err), gatherPins(nodes), env.LiveProcs())
		}},
	}
}

// TestScheduleGolden replays every row on both devices, twice, and compares
// the rendered lines with testdata/schedule.golden byte for byte.
func TestScheduleGolden(t *testing.T) {
	lines := golden.Twice(t, func() string { return scheduleLines(t) })
	golden.Check(t, filepath.Join("testdata", "schedule.golden"), lines)
}

func scheduleLines(t *testing.T) string {
	var b strings.Builder
	for _, dev := range []string{"ssd", "hdd"} {
		for _, row := range scheduleRows() {
			line := row.run(t, dev)
			fmt.Fprintf(&b, "%s/%s %s\n", dev, row.name, line)
			if strings.HasPrefix(row.name, "abort-") {
				if !strings.Contains(line, "deadline") {
					t.Errorf("%s/%s: the run did not abort on its deadline: %s", dev, row.name, line)
				}
				if !strings.Contains(line, "pinned=0 live=0") {
					t.Errorf("%s/%s: the abort left resources behind: %s", dev, row.name, line)
				}
			}
		}
	}
	return b.String()
}
