package exec

import (
	"fmt"
	"testing"

	"pioqo/internal/disk"
	"pioqo/internal/fault"
	"pioqo/internal/obs"
	"pioqo/internal/sim"
	"pioqo/internal/table"
)

// traced gives ctx a fresh tracer and returns the root span a run opens its
// operators under.
func traced(env *sim.Env, ctx *Context) *obs.Span {
	ctx.Tracer = obs.NewTracer(env, "fold")
	return ctx.Tracer.Start(nil, "query")
}

// workerCPU sums the CPU time the worker track spans under root report.
func workerCPU(root *obs.Span) sim.Duration {
	var cpu sim.Duration
	root.Walk(func(s *obs.Span) {
		if s.Track() == 0 {
			return
		}
		for _, a := range s.Attrs {
			if d, ok := a.Value.(sim.Duration); ok && a.Key == "cpu" {
				cpu += d
			}
		}
	})
	return cpu
}

// TestHashFoldRunsOnTheWorkers: a hash operator's per-row work — the
// group-by's fold, the hash join's insert and lookup — is charged with the
// row on the scan worker that delivers it. So a cold degree-8 group-by or
// hash join whose scans wait on the disk finishes within its plain degree-8
// scans plus the driver's merge of the per-worker partials, with the
// groups, pairs and values of a degree-1 run; and the hash CPU shows in the
// worker track spans, exactly the rows times the per-row cost more than the
// plain scans' workers report. The hashing hides under the reads but for
// each scan's tail: the rows of its last block read, which the workers
// evaluate after that read lands, a block's pages over the workers.
func TestHashFoldRunsOnTheWorkers(t *testing.T) {
	const degree = 8
	costs := DefaultCPUCosts()
	tail := func(rpp int, perRow sim.Duration) sim.Duration {
		return sim.Duration((disk.BlockPages+degree-1)/degree*rpp) * perRow
	}

	t.Run("groupby", func(t *testing.T) {
		const lo, hi, width = 100, 15000, 1000
		run := func(degree int, group bool) (sim.Duration, sim.Duration, GroupByResult) {
			w := schedWorld(t, "hdd", 20000)
			root := traced(w.env, w.ctx)
			scan := w.spec(FullScan, degree, lo, hi)
			scan.Agg, scan.Span = AggSum, root
			if !group {
				res := Execute(w.ctx, scan)
				return res.Runtime, workerCPU(root), GroupByResult{Rows: res.RowsMatched}
			}
			res := ExecuteGroupBy(w.ctx, GroupBySpec{Scan: scan, GroupWidth: width, Agg: AggSum})
			return res.Runtime, workerCPU(root), res
		}
		scanRT, scanCPU, scan := run(degree, false)
		rt, cpu, res := run(degree, true)
		_, _, serial := run(1, true)

		if fmt.Sprint(res.Groups) != fmt.Sprint(serial.Groups) || res.Rows != serial.Rows || res.Rows != scan.Rows {
			t.Errorf("degree %d: %d rows in %v; degree 1: %d rows in %v; the plain scan matched %d rows",
				degree, res.Rows, res.Groups, serial.Rows, serial.Groups, scan.Rows)
		}
		merge := sim.Duration(len(res.Groups)*degree) * costs.PerRow
		if slack := merge + tail(33, costs.HashGroup); rt > scanRT+slack {
			t.Errorf("degree-%d group-by took %v, over its plain scan's %v plus the merge and the tail's fold, %v",
				degree, rt, scanRT, slack)
		}
		if fold := sim.Duration(res.Rows) * costs.HashGroup; cpu-scanCPU != fold {
			t.Errorf("workers report %v of CPU against the plain scan's %v: %v more, want the fold's %v",
				cpu, scanCPU, cpu-scanCPU, fold)
		}
	})

	t.Run("hashjoin", func(t *testing.T) {
		const lo, hi = 200, 1699
		run := func(degree int, join bool) (sim.Duration, sim.Duration, JoinResult) {
			w := schedJoinWorld("hdd")
			root := traced(w.env, w.ctx)
			spec := w.spec(lo, hi, FullScan, FullScan, degree)
			spec.Agg, spec.Build.Span, spec.Probe.Span = AggSum, root, root
			if join {
				res := ExecuteJoin(w.ctx, spec)
				return res.Runtime, workerCPU(root), res
			}
			// The same two scans back to back, without the hash table.
			var res JoinResult
			res.Runtime, _, _ = metered(w.ctx, "plain", func(p *sim.Proc) {
				res.BuildRows = RunScan(p, w.ctx, spec.Build).RowsMatched
				res.ProbeRows = RunScan(p, w.ctx, spec.Probe).RowsMatched
			})
			return res.Runtime, workerCPU(root), res
		}
		scanRT, scanCPU, scan := run(degree, false)
		rt, cpu, res := run(degree, true)
		_, _, serial := run(1, true)

		if res.Pairs == 0 || res.Pairs != serial.Pairs || res.Value != serial.Value || res.Found != serial.Found {
			t.Errorf("degree %d: %d pairs, value %d (%v); degree 1: %d pairs, value %d (%v)",
				degree, res.Pairs, res.Value, res.Found, serial.Pairs, serial.Value, serial.Found)
		}
		if res.BuildRows != scan.BuildRows || res.ProbeRows != scan.ProbeRows {
			t.Errorf("join read %d build and %d probe rows, the plain scans %d and %d",
				res.BuildRows, res.ProbeRows, scan.BuildRows, scan.ProbeRows)
		}
		if slack := tail(33, costs.HashInsert) + tail(33, costs.HashProbe); rt > scanRT+slack {
			t.Errorf("degree-%d hash join took %v, over its plain scans' %v plus their tails' hashing, %v",
				degree, rt, scanRT, slack)
		}
		hash := sim.Duration(res.BuildRows)*costs.HashInsert + sim.Duration(res.ProbeRows)*costs.HashProbe
		if cpu-scanCPU != hash {
			t.Errorf("workers report %v of CPU against the plain scans' %v: %v more, want the hashing's %v",
				cpu, scanCPU, cpu-scanCPU, hash)
		}
	})
}

// TestLateBlockHoldsUpNoOther: one straggler on the second block of a cold
// PFTS8 — the injector draws it for that read alone — and the workers take
// the window's later blocks as they land: every page of blocks 2–4 is
// evaluated before the first page of the late block, which waits for its
// read, and the answer is the healthy run's. Claiming pages in order, the
// fleet waited on the late block with the blocks behind it in the pool.
func TestLateBlockHoldsUpNoOther(t *testing.T) {
	const rows, late = 33 * 64 * 10, 1
	type span struct{ first, last sim.Time }
	run := func(straggle bool) (agg, []span, sim.Duration) {
		w, inj := newFaultWorld(t, worldOpts{rows: rows, rpp: 33})
		if straggle {
			// Seed 55 draws a straggler for the second read at t = 0 only.
			inj.Arm(fault.Schedule{Seed: 55, Windows: []fault.Window{
				{To: sim.Microsecond, StragglerRate: 0.5, StragglerLatency: 5 * sim.Millisecond}}})
		}
		got := agg{kind: AggMax}
		var blocks []span // when each block's rows were evaluated
		spec := w.spec(FullScan, 8, 0, rows)
		spec.Emit = func(rowID int64, row table.Row) {
			got.add(row.C1)
			b := int(table.PageOf(rowID, 33) / disk.BlockPages)
			for len(blocks) <= b {
				blocks = append(blocks, span{first: -1})
			}
			if blocks[b].first < 0 {
				blocks[b].first = w.env.Now()
			}
			blocks[b].last = w.env.Now()
		}
		res := Execute(w.ctx, spec)
		if want := map[bool]int64{true: 1}[straggle]; got.rows != res.RowsMatched || inj.Stats().Stragglers != want {
			t.Fatalf("straggle %v: %d rows emitted, %d matched, %d stragglers, want %d",
				straggle, got.rows, res.RowsMatched, inj.Stats().Stragglers, want)
		}
		return got, blocks, res.Runtime
	}
	healthy, _, healthyRT := run(false)
	faulted, blocks, rt := run(true)
	if faulted != healthy {
		t.Errorf("with a late block: %+v; healthy: %+v", faulted, healthy)
	}
	for b := late + 1; b <= late+3; b++ {
		if blocks[b].last >= blocks[late].first {
			t.Errorf("block %d evaluated until %v, the late block %d from %v: want it done before",
				b, sim.Duration(blocks[b].last), late, sim.Duration(blocks[late].first))
		}
	}
	t.Logf("healthy %v, one late block %v; block spans %v", healthyRT, rt, blocks)
}
