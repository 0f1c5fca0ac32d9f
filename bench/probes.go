package main

import (
	"fmt"
	"time"

	"pioqo/internal/broker"
	"pioqo/internal/btree"
	"pioqo/internal/buffer"
	"pioqo/internal/calibrate"
	"pioqo/internal/cost"
	"pioqo/internal/device"
	"pioqo/internal/disk"
	"pioqo/internal/exec"
	"pioqo/internal/opt"
	"pioqo/internal/sim"
	"pioqo/internal/table"
	engine "pioqo/internal/workload"
)

// probes time each layer's public functions on a bare sim.Env, for about d
// of host time per metric. They are the only part of the benchmark that
// imports pioqo/internal/*.
var probes = []func(d time.Duration, sz sizes) map[string]metric{
	probeSim, probeDevice, probeBuffer, probeTable, probeBtree,
	probeExec, probeCost, probeCalibrate, probeOpt, probeBroker,
}

// runProbes gives every probe d seconds of host time per metric it reports.
func runProbes(d float64, sz sizes) map[string]metric {
	out := map[string]metric{}
	for _, probe := range probes {
		for name, m := range probe(time.Duration(d*float64(time.Second)), sz) {
			out[name] = m
		}
	}
	return out
}

func ns(perOp float64) metric { return host("ns", perOp) }

// until calls batch — which does n operations — until d has passed, and
// returns host ns per operation.
func until(d time.Duration, n int, batch func()) float64 {
	start := time.Now()
	ops := 0
	for time.Since(start) < d {
		batch()
		ops += n
	}
	return float64(time.Since(start)) / float64(ops)
}

// inProcs runs body on procs simulated processes, each looping until d of
// host time has passed, and returns host ns per call of body.
func inProcs(env *sim.Env, d time.Duration, procs int, body func(p *sim.Proc)) float64 {
	start := time.Now()
	ops := 0
	for w := 0; w < procs; w++ {
		env.Go(fmt.Sprintf("probe%d", w), func(p *sim.Proc) {
			for time.Since(start) < d {
				for i := 0; i < 64; i++ {
					body(p)
				}
				ops += 64
			}
		})
	}
	env.Run()
	return float64(time.Since(start)) / float64(ops)
}

func probeSim(d time.Duration, _ sizes) map[string]metric {
	out := map[string]metric{}

	env := sim.NewEnv(1)
	start := time.Now()
	fired := 0
	var tick func()
	tick = func() {
		fired++
		if fired%1024 != 0 || time.Since(start) < d {
			env.Schedule(sim.Microsecond, tick)
		}
	}
	env.Schedule(sim.Microsecond, tick)
	env.Run()
	out["sim.event_ns"] = ns(float64(time.Since(start)) / float64(fired))

	out["sim.proc_switch_ns"] = ns(inProcs(sim.NewEnv(1), d, 1, func(p *sim.Proc) { p.Sleep(sim.Microsecond) }))

	env = sim.NewEnv(1)
	cores := sim.NewResource(env, "core", 4)
	out["sim.resource_use_ns"] = ns(inProcs(env, d, 16, func(p *sim.Proc) { p.Use(cores, sim.Microsecond) }))
	return out
}

func probeDevice(d time.Duration, _ sizes) map[string]metric {
	reads := func(kind engine.DeviceKind, depth int) metric {
		env := sim.NewEnv(1)
		dev := engine.NewDevice(env, kind)
		pages := dev.Size() / disk.PageSize
		return ns(inProcs(env, d, depth, func(p *sim.Proc) {
			p.Wait(dev.ReadAt(env.Rand().Int63n(pages)*disk.PageSize, disk.PageSize))
		}))
	}
	return map[string]metric{
		"device.ssd_qd1_req_ns": reads(engine.SSD, 1),
		"device.ssd_req_ns":     reads(engine.SSD, 32),
		"device.hdd_req_ns":     reads(engine.HDD, 32),
		"device.raid_req_ns":    reads(engine.RAID8, 32),
	}
}

// world is a bare storage stack with one synthetic table, as the engine's
// own micro-benchmarks build it.
type world struct {
	ctx *exec.Context
	tab *table.Synthetic
	idx *btree.Index
}

func newWorld(rows int64, rpp, poolPages int) world {
	env := sim.NewEnv(77)
	dev := device.NewSSD(env, device.DefaultSSDConfig())
	mgr := disk.NewManager(dev)
	tab := table.NewSynthetic(mgr, "t", rows, rpp, 7)
	return world{
		ctx: &exec.Context{
			Env:   env,
			CPU:   sim.NewResource(env, "cpu", 8),
			Pool:  buffer.NewPool(env, poolPages),
			Dev:   dev,
			Costs: exec.DefaultCPUCosts(),
		},
		tab: tab,
		idx: btree.NewSynthetic(mgr, tab, 0, 0),
	}
}

func probeBuffer(d time.Duration, sz sizes) map[string]metric {
	out := map[string]metric{}
	pool := int64(sz.PoolPages)

	// Hits: the working set is half the pool, so after one lap every fetch
	// finds its page.
	w := newWorld(pool*64, 1, sz.PoolPages)
	file := w.tab.File()
	page := int64(0)
	out["buffer.hit_ns"] = ns(inProcs(w.ctx.Env, d, 1, func(p *sim.Proc) {
		w.ctx.Pool.FetchPage(p, file, page%(pool/2)).Release()
		page++
	}))

	// Misses: a table 64× the pool, swept in order, never finds its page.
	w = newWorld(pool*64, 1, sz.PoolPages)
	file = w.tab.File()
	page = 0
	out["buffer.miss_ns"] = ns(inProcs(w.ctx.Env, d, 1, func(p *sim.Proc) {
		w.ctx.Pool.FetchPage(p, file, page%(pool*64)).Release()
		page++
	}))

	// Prefetch: 32-page runs issued ahead of the fetches that consume them.
	w = newWorld(pool*64, 1, sz.PoolPages)
	file = w.tab.File()
	page = 0
	const run = 32
	perRun := inProcs(w.ctx.Env, d, 1, func(p *sim.Proc) {
		base := page % (pool*64 - run)
		w.ctx.Pool.PrefetchRun(file, base, run)
		for i := int64(0); i < run; i++ {
			w.ctx.Pool.FetchPage(p, file, base+i).Release()
		}
		page += run
	})
	out["buffer.prefetch_page_ns"] = ns(perRun / run)
	return out
}

func probeTable(d time.Duration, _ sizes) map[string]metric {
	const rows, batch = 1 << 20, 500
	env := sim.NewEnv(1)
	mgr := disk.NewManager(device.NewSSD(env, device.DefaultSSDConfig()))
	syn := table.NewSynthetic(mgr, "s", rows, batch, 7)
	mat := table.NewMaterialized(mgr, "m", rows, batch, 7)
	buf := make([]table.Row, 0, batch)
	lo := int64(0)
	sweep := func(t table.Table) metric {
		return ns(until(d, batch, func() {
			buf = t.RowsAt(lo, lo+batch, buf[:0])
			lo = (lo + batch) % (rows - batch)
		}))
	}
	return map[string]metric{
		"table.synthetic_rowsat_ns_per_row":    sweep(syn),
		"table.materialized_rowsat_ns_per_row": sweep(mat),
	}
}

func probeBtree(d time.Duration, _ sizes) map[string]metric {
	w := newWorld(1<<20, 33, 64)
	buf := make([]btree.Entry, 0, w.idx.LeafCap())
	leaf := int64(0)
	entries := until(d, w.idx.LeafCap(), func() {
		buf = w.idx.LeafEntries(leaf, buf[:0])
		leaf = (leaf + 1) % (w.idx.Leaves() - 1)
	})
	key := int64(0)
	lookup := until(d, 1, func() {
		w.idx.LeafOf(w.idx.SearchGE(key))
		key = (key + 7919) % (1 << 20)
	})
	return map[string]metric{"btree.leaf_entry_ns": ns(entries), "btree.lookup_ns": ns(lookup)}
}

func probeExec(d time.Duration, sz sizes) map[string]metric {
	out := map[string]metric{}
	const rows = 1 << 20
	w := newWorld(rows, 500, 2*sz.PoolPages)
	perRow := func(spec exec.Spec, simrows int) metric {
		spec.Table, spec.Index = w.tab, w.idx
		return ns(until(d, simrows, func() {
			w.ctx.Pool.Flush()
			exec.Execute(w.ctx, spec)
		}))
	}
	// Full scans examine every row; the predicate matches half of them, so
	// the deliver path runs too. Index scans are costed per matching row.
	out["exec.fts_ns_per_simrow"] = perRow(exec.Spec{Lo: 0, Hi: rows / 2, Method: exec.FullScan, Degree: 1}, rows)
	out["exec.pfts8_ns_per_simrow"] = perRow(exec.Spec{Lo: 0, Hi: rows / 2, Method: exec.FullScan, Degree: 8}, rows)
	out["exec.is_ns_per_simrow"] = perRow(exec.Spec{Lo: 0, Hi: 2999, Method: exec.IndexScan, Degree: 1}, 3000)
	out["exec.pis32_ns_per_simrow"] = perRow(exec.Spec{Lo: 0, Hi: 2999, Method: exec.IndexScan, Degree: 32}, 3000)

	const buildRows = rows / 4
	join := exec.JoinSpec{
		Build: exec.Spec{Table: w.tab, Index: w.idx, Lo: 0, Hi: buildRows - 1, Method: exec.FullScan, Degree: 8},
		Probe: exec.Spec{Table: w.tab, Index: w.idx, Lo: 0, Hi: 0, Method: exec.IndexScan, Degree: 1},
		Agg:   exec.AggMax,
	}
	out["exec.hashjoin_build_ns_per_row"] = ns(until(d, buildRows, func() {
		w.ctx.Pool.Flush()
		exec.ExecuteJoin(w.ctx, join)
	}))
	group := exec.GroupBySpec{
		Scan:       exec.Spec{Table: w.tab, Index: w.idx, Lo: 0, Hi: buildRows - 1, Method: exec.FullScan, Degree: 8},
		GroupWidth: rows / 256,
		Agg:        exec.AggSum,
	}
	out["exec.groupby_ns_per_row"] = ns(until(d, buildRows, func() {
		w.ctx.Pool.Flush()
		exec.ExecuteGroupBy(w.ctx, group)
	}))
	return out
}

// calibrated runs the calibration sweep on a fresh SSD and returns its
// model with what the sweep cost.
func calibrated(sz sizes) (calibrate.Output, float64) {
	env := sim.NewEnv(1)
	dev := engine.NewDevice(env, engine.SSD)
	cfg := calibrate.DefaultConfig(dev)
	cfg.MaxReads = sz.CalibReads
	start := time.Now()
	out := calibrate.Run(env, dev, cfg)
	return out, time.Since(start).Seconds()
}

func probeCalibrate(_ time.Duration, sz sizes) map[string]metric {
	out, elapsed := calibrated(sz)
	return map[string]metric{
		"calibrate.host_s": host("s", elapsed),
		"calibrate.virt_s": exact("s", out.SimTime.Seconds()),
		"calibrate.reads":  exact("count", float64(out.TotalReads)),
	}
}

func probeCost(d time.Duration, sz sizes) map[string]metric {
	cal, _ := calibrated(sz)
	var model cost.Model = cal.Model
	band, sink := int64(1), 0.0
	perCall := until(d, 32, func() {
		for depth := 1; depth <= 32; depth++ {
			sink += model.PageCost(band, depth)
		}
		band = band*3%(1<<22) + 1
	})
	_ = sink
	return map[string]metric{"cost.pagecost_ns": ns(perCall)}
}

func probeOpt(d time.Duration, sz sizes) map[string]metric {
	cal, _ := calibrated(sz)
	w := newWorld(sz.SweepPages*33, 33, sz.PoolPages)
	cfg := opt.Config{
		Model:     cal.Model,
		Costs:     w.ctx.Costs,
		Cores:     8,
		Degrees:   []int{1, 2, 4, 8, 16, 32},
		PoolPages: int64(sz.PoolPages),
	}
	cfg.GridKey = opt.GridKey(cfg.Degrees, nil)
	domain := w.tab.KeyDomain()
	// Four serving selectivities, each clearly inside one plan regime, at a
	// start that strides the key domain: the shape repeats, constants never.
	i := 0
	next := func() opt.Input {
		sel := [4]float64{0.0005, 0.002, 0.008, 0.1}[i%4]
		width := int64(sel * float64(domain))
		lo := int64(i) * 9973 % (domain - width)
		i++
		return opt.Input{Table: w.tab, Index: w.idx, Pool: w.ctx.Pool, Lo: lo, Hi: lo + width - 1}
	}
	out := map[string]metric{}
	out["opt.choose_ns"] = ns(until(d, 1, func() { opt.Choose(cfg, next()) }))
	out["opt.greedy_ns"] = ns(until(d, 1, func() { opt.GreedyChoose(cfg, next()) }))

	memo := opt.NewMemo()
	fixed := next()
	memo.Choose(cfg, fixed)
	out["opt.memo_hit_ns"] = ns(until(d, 1, func() { memo.Choose(cfg, fixed) }))

	pc := opt.NewParamCache()
	for j := 0; j < 8; j++ {
		pc.Choose(cfg, next())
	}
	out["opt.paramcache_hit_ns"] = ns(until(d, 1, func() { pc.Choose(cfg, next()) }))

	const shards = 8
	cfgs, ins := make([]opt.Config, shards), make([]opt.Input, shards)
	out["opt.choose_sharded_ns"] = ns(until(d, 1, func() {
		in := next()
		for s := range cfgs {
			cfgs[s], ins[s] = cfg, in
		}
		opt.ChooseSharded(opt.Choose, cfgs, ins, opt.MergeScalar, 0)
	}))
	return out
}

func probeBroker(d time.Duration, sz sizes) map[string]metric {
	cal, _ := calibrated(sz)
	env := sim.NewEnv(1)
	b := broker.New(broker.Config{Env: env, Model: cal.Model, Band: 1 << 20, PoolPages: sz.PoolPages, Workers: 8})
	return map[string]metric{"broker.admit_ns": ns(inProcs(env, d, 4, func(p *sim.Proc) {
		lease := b.Enqueue(0)
		lease.Await(p)
		p.Sleep(sim.Microsecond)
		lease.Release()
	}))}
}
