package exec

import (
	"errors"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"pioqo/internal/fault"
	"pioqo/internal/golden"
	"pioqo/internal/obs"
	"pioqo/internal/sim"
)

func TestIndexNLJoinMatchesHashJoin(t *testing.T) {
	w := newJoinWorld(t, 2000, 8000)
	for _, rg := range []struct{ lo, hi int64 }{{0, 99}, {500, 1500}, {0, 1999}} {
		hashSpec := w.spec(rg.lo, rg.hi, IndexScan, IndexScan, 4)
		hash := ExecuteJoin(w.ctx, hashSpec)
		w.ctx.Pool.Flush()

		nlSpec := w.spec(rg.lo, rg.hi, IndexScan, IndexScan, 4)
		nlSpec.Method = IndexNLJoin
		nl := ExecuteJoin(w.ctx, nlSpec)
		w.ctx.Pool.Flush()

		if nl.Pairs != hash.Pairs || nl.Value != hash.Value || nl.Found != hash.Found {
			t.Errorf("[%d,%d]: NL (pairs=%d val=%d,%v) vs hash (pairs=%d val=%d,%v)",
				rg.lo, rg.hi, nl.Pairs, nl.Value, nl.Found, hash.Pairs, hash.Value, hash.Found)
		}
	}
}

func TestIndexNLJoinWinsWithTinyBuildSide(t *testing.T) {
	// 50 build rows against an 80k-row probe over the whole key domain:
	// the hash join must scan every probe row in range, the NL join does
	// ~50 index lookups.
	w := newJoinWorld(t, 50, 80000)
	lo, hi := int64(0), int64(49) // whole build domain

	hash := ExecuteJoin(w.ctx, w.spec(lo, hi, FullScan, IndexScan, 8))
	w.ctx.Pool.Flush()
	nlSpec := w.spec(lo, hi, FullScan, IndexScan, 8)
	nlSpec.Method = IndexNLJoin
	nl := ExecuteJoin(w.ctx, nlSpec)

	if nl.Pairs != hash.Pairs {
		t.Fatalf("answers differ: NL %d vs hash %d pairs", nl.Pairs, hash.Pairs)
	}
	if nl.Runtime >= hash.Runtime {
		t.Errorf("NL join (%v) not faster than hash join (%v) with a tiny build side",
			nl.Runtime, hash.Runtime)
	}
}

func TestIndexNLJoinParallelLookupsScale(t *testing.T) {
	run := func(degree int) sim.Duration {
		w := newJoinWorld(t, 500, 50000)
		spec := w.spec(0, 499, FullScan, IndexScan, degree)
		spec.Method = IndexNLJoin
		spec.Probe.Degree = degree
		return ExecuteJoin(w.ctx, spec).Runtime
	}
	if gain := float64(run(1)) / float64(run(16)); gain < 4 {
		t.Errorf("16-way NL join gain = %.1fx, want >= 4x on SSD", gain)
	}
}

func TestIndexNLJoinWithoutProbeIndexPanics(t *testing.T) {
	w := newJoinWorld(t, 100, 100)
	spec := w.spec(0, 99, FullScan, IndexScan, 1)
	spec.Method = IndexNLJoin
	spec.Probe.Index = nil
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for NL join without probe index")
		}
	}()
	ExecuteJoin(w.ctx, spec)
}

// nlJoinUnderControl is an index nested-loop join whose two scans share one
// abort control, as the engine's query lifecycle wires them.
func nlJoinUnderControl(w *joinWorld, ctl *fault.Control) JoinSpec {
	spec := w.spec(0, 1999, FullScan, IndexScan, 4)
	spec.Method = IndexNLJoin
	spec.Build.Ctl, spec.Probe.Ctl = ctl, ctl
	spec.Probe.Retry = fault.RetryPolicy{MaxAttempts: 2}
	return spec
}

// TestIndexNLJoinProbeFaultAbortsCleanly: the build side is pool-resident,
// so with every device read failing the build phase still completes and the
// fault lands in the probe phase — the index descent — where it must come
// back as Err, not a panic, with nothing pinned or running.
func TestIndexNLJoinProbeFaultAbortsCleanly(t *testing.T) {
	w := newJoinWorld(t, 2000, 8000)
	warm := Execute(w.ctx, w.spec(0, 1999, FullScan, IndexScan, 4).Build)
	w.inj.Arm(fault.Schedule{Windows: []fault.Window{{ErrorRate: 1}}})
	res := ExecuteJoin(w.ctx, nlJoinUnderControl(w, fault.NewControl(w.env)))
	if !errors.Is(res.Err, fault.ErrDeviceFault) {
		t.Fatalf("Err = %v, want ErrDeviceFault", res.Err)
	}
	if res.BuildRows != warm.RowsMatched || res.BuildRows == 0 {
		t.Errorf("build phase saw %d rows, want all %d: the fault was meant to hit the probe phase",
			res.BuildRows, warm.RowsMatched)
	}
	if n, pins := w.env.LiveProcs(), w.ctx.Pool.Pinned(); n != 0 || pins != 0 {
		t.Errorf("%d processes live, %d pages pinned after the abort", n, pins)
	}
}

// TestIndexNLJoinCancelMidProbe: a cancel landing between the end of the
// build phase and the end of the join stops the probe workers at their next
// key, leaving a partial probe count and nothing pinned or running.
func TestIndexNLJoinCancelMidProbe(t *testing.T) {
	healthy := newJoinWorld(t, 2000, 8000)
	build := Execute(healthy.ctx, healthy.spec(0, 1999, FullScan, IndexScan, 4).Build)
	healthy.ctx.Pool.Flush()
	whole := ExecuteJoin(healthy.ctx, nlJoinUnderControl(healthy, fault.NewControl(healthy.env)))
	if whole.Err != nil || whole.Runtime <= build.Runtime {
		t.Fatalf("healthy join: err %v, runtime %v vs build scan %v", whole.Err, whole.Runtime, build.Runtime)
	}

	w := newJoinWorld(t, 2000, 8000)
	ctl := fault.NewControl(w.env)
	w.env.Schedule((build.Runtime+whole.Runtime)/2, func() { ctl.Cancel(fault.ErrCanceled) })
	res := ExecuteJoin(w.ctx, nlJoinUnderControl(w, ctl))
	if !errors.Is(res.Err, fault.ErrCanceled) {
		t.Fatalf("Err = %v, want ErrCanceled", res.Err)
	}
	if res.BuildRows != whole.BuildRows || res.ProbeRows >= whole.ProbeRows {
		t.Errorf("canceled join: build %d probe %d rows; healthy %d and %d — the cancel was meant to cut the probe phase short",
			res.BuildRows, res.ProbeRows, whole.BuildRows, whole.ProbeRows)
	}
	if n, pins := w.env.LiveProcs(), w.ctx.Pool.Pinned(); n != 0 || pins != 0 {
		t.Errorf("%d processes live, %d pages pinned after the abort", n, pins)
	}
}

// goldenRuntime reads one row's runtime_ns from testdata/schedule.golden.
func goldenRuntime(t *testing.T, row string) sim.Duration {
	t.Helper()
	for _, line := range strings.Split(golden.Read(t, filepath.Join("testdata", "schedule.golden")), "\n") {
		if !strings.HasPrefix(line, row+" ") {
			continue
		}
		for _, f := range strings.Fields(line) {
			if v, ok := strings.CutPrefix(f, "runtime_ns="); ok {
				ns, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					t.Fatal(err)
				}
				return sim.Duration(ns)
			}
		}
	}
	t.Fatalf("no row %q with a runtime in the schedule golden", row)
	return 0
}

// countingGov is a Governor that tracks the live worker count the way a
// broker lease does, and how often that count fell back to zero. It is
// granted from the start and reserves no pool pages.
type countingGov struct {
	starts, ends, live, zeros int
}

func (g *countingGov) Admit(*sim.Proc)   {}
func (g *countingGov) Admitted() bool    { return true }
func (g *countingGov) OnAdmit(fn func()) { fn() }
func (g *countingGov) PoolPages() int    { return 0 }

func (g *countingGov) StartWorker() { g.starts++; g.live++ }
func (g *countingGov) EndWorker() {
	g.ends++
	if g.live--; g.live == 0 {
		g.zeros++
	}
}

// TestIndexNLJoinWorkersAreWorkers: the probe workers run on the fleet
// harness like every scan worker, so the governor and the event log see one
// lifetime per worker under the probe spec's query id, a tracer gets one
// track span per worker — and none of that reporting costs virtual time.
func TestIndexNLJoinWorkersAreWorkers(t *testing.T) {
	const degree, qid = 4, 77
	w := schedJoinWorld("ssd")
	w.ctx.Obs = obs.NewRegistry(w.env)
	w.ctx.Obs.EnableEvents(0)
	w.ctx.Tracer = obs.NewTracer(w.env, "nlj")
	gov := &countingGov{}
	root := w.ctx.Tracer.Start(nil, "join")
	spec := w.spec(200, 1699, FullScan, IndexScan, degree)
	spec.Method = IndexNLJoin
	spec.Probe.Gov, spec.Probe.QID, spec.Probe.Span = gov, qid, root
	res := ExecuteJoin(w.ctx, spec)
	root.End()

	if want := goldenRuntime(t, "ssd/nljoin-d4"); res.Runtime != want {
		t.Errorf("governed, logged and traced join took %d ns, the bare one in the schedule golden %d",
			int64(res.Runtime), int64(want))
	}
	if gov.starts != degree || gov.ends != degree {
		t.Errorf("governor saw %d starts and %d ends, want %d each", gov.starts, gov.ends, degree)
	}
	var starts, exits int
	for _, e := range w.ctx.Obs.Log().Events() {
		if e.Query != qid {
			continue
		}
		switch e.Type {
		case obs.EvWorkerStart:
			starts++
		case obs.EvWorkerExit:
			exits++
		}
	}
	if starts != degree || exits != degree {
		t.Errorf("event log has %d worker.start and %d worker.exit under query %d, want %d each",
			starts, exits, qid, degree)
	}
	var tracks int
	var rows int64
	root.Walk(func(s *obs.Span) {
		if !strings.HasPrefix(s.Name, "nlj-w") {
			return
		}
		tracks++
		for _, key := range []string{"pages", "rows", "cpu", "io_wait"} {
			if _, ok := s.Attr(key); !ok {
				t.Errorf("span %s has no %q attribute", s.Name, key)
			}
		}
		v, _ := s.Attr("rows")
		n, _ := strconv.ParseInt(v, 10, 64)
		rows += n
	})
	if tracks != degree {
		t.Errorf("%d nlj-w track spans, want %d", tracks, degree)
	}
	if rows != res.ProbeRows || rows == 0 {
		t.Errorf("worker spans account for %d probe rows, the join reports %d", rows, res.ProbeRows)
	}
}
