package exec

import (
	"errors"
	"testing"

	"pioqo/internal/fault"
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
