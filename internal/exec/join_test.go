package exec

import (
	"testing"

	"pioqo/internal/btree"
	"pioqo/internal/buffer"
	"pioqo/internal/device"
	"pioqo/internal/disk"
	"pioqo/internal/fault"
	"pioqo/internal/reference"
	"pioqo/internal/sim"
	"pioqo/internal/table"
)

// joinWorld holds two materialized tables sharing one device and pool. The
// device sits behind a fault injector, a pure passthrough until armed.
type joinWorld struct {
	env      *sim.Env
	inj      *fault.Injector
	ctx      *Context
	build    *table.Materialized
	probe    *table.Materialized
	buildIdx *btree.Index
	probeIdx *btree.Index
}

func newJoinWorld(t *testing.T, buildRows, probeRows int64) *joinWorld {
	t.Helper()
	env := sim.NewEnv(505)
	inj := fault.Wrap(env, nil, device.NewSSD(env, device.DefaultSSDConfig()))
	m := disk.NewManager(inj)
	build := table.NewMaterialized(m, "build", buildRows, 33, 21)
	probe := table.NewMaterialized(m, "probe", probeRows, 33, 22)
	return &joinWorld{
		env:      env,
		inj:      inj,
		build:    build,
		probe:    probe,
		buildIdx: btree.NewMaterialized(m, build, 0, 0),
		probeIdx: btree.NewMaterialized(m, probe, 0, 0),
		ctx: &Context{
			Env:   env,
			CPU:   sim.NewResource(env, "cpu", 8),
			Pool:  buffer.NewPool(env, 4096),
			Dev:   inj,
			Costs: DefaultCPUCosts(),
		},
	}
}

func (w *joinWorld) spec(lo, hi int64, buildMethod, probeMethod Method, degree int) JoinSpec {
	return JoinSpec{
		Build: Spec{Table: w.build, Index: w.buildIdx, Lo: lo, Hi: hi,
			Method: buildMethod, Degree: degree},
		Probe: Spec{Table: w.probe, Index: w.probeIdx, Lo: lo, Hi: hi,
			Method: probeMethod, Degree: degree},
	}
}

func TestHashJoinMatchesBruteForce(t *testing.T) {
	w := newJoinWorld(t, 3000, 5000)
	for _, rg := range []struct{ lo, hi int64 }{{0, 99}, {500, 1500}, {0, 2999}} {
		want := reference.Join(w.build, w.probe, rg.lo, rg.hi)
		for _, methods := range [][2]Method{
			{IndexScan, IndexScan},
			{FullScan, FullScan},
			{IndexScan, FullScan},
			{FullScan, IndexScan},
		} {
			res := ExecuteJoin(w.ctx, w.spec(rg.lo, rg.hi, methods[0], methods[1], 4))
			if res.Pairs != want.Rows {
				t.Errorf("%v/%v [%d,%d]: pairs=%d, want %d",
					methods[0], methods[1], rg.lo, rg.hi, res.Pairs, want.Rows)
			}
			if res.Found != want.Found() || (want.Found() && res.Value != want.Max) {
				t.Errorf("%v/%v [%d,%d]: max=(%d,%v), want (%d,%v)",
					methods[0], methods[1], rg.lo, rg.hi, res.Value, res.Found, want.Max, want.Found())
			}
		}
	}
}

func TestHashJoinCountAndSum(t *testing.T) {
	w := newJoinWorld(t, 1000, 2000)
	want := reference.Join(w.build, w.probe, 0, 499)
	spec := w.spec(0, 499, IndexScan, IndexScan, 2)
	spec.Agg = AggCount
	res := ExecuteJoin(w.ctx, spec)
	if !res.Found || res.Value != want.Rows {
		t.Errorf("COUNT join = (%d,%v), want %d", res.Value, res.Found, want.Rows)
	}
}

func TestHashJoinEmptyRange(t *testing.T) {
	w := newJoinWorld(t, 500, 500)
	res := ExecuteJoin(w.ctx, w.spec(100, 99, IndexScan, IndexScan, 2))
	if res.Found || res.Pairs != 0 {
		t.Errorf("empty-range join: found=%v pairs=%d", res.Found, res.Pairs)
	}
}

func TestHashJoinParallelScansSpeedItUp(t *testing.T) {
	run := func(degree int) sim.Duration {
		w := newJoinWorld(t, 20000, 30000)
		return ExecuteJoin(w.ctx, w.spec(0, 1999, IndexScan, IndexScan, degree)).Runtime
	}
	serial := run(1)
	parallel := run(32)
	if gain := float64(serial) / float64(parallel); gain < 5 {
		t.Errorf("32-way join gain = %.1fx over serial, want >= 5x on SSD", gain)
	}
}

func TestHashJoinProbeNarrowedToBuildRange(t *testing.T) {
	w := newJoinWorld(t, 2000, 2000)
	spec := w.spec(100, 199, IndexScan, IndexScan, 2)
	spec.Probe.Lo, spec.Probe.Hi = 0, w.probe.Rows() // deliberately wide
	res := ExecuteJoin(w.ctx, spec)
	want := reference.Join(w.build, w.probe, 100, 199)
	if res.Pairs != want.Rows {
		t.Errorf("pairs=%d, want %d (probe must be narrowed)", res.Pairs, want.Rows)
	}
	// The probe scan must not have visited the whole table's rows.
	if res.ProbeRows >= w.probe.Rows()/2 {
		t.Errorf("probe inspected %d rows; range propagation failed", res.ProbeRows)
	}
}
