package opt

import (
	"strings"
	"testing"

	"pioqo/internal/exec"
)

func TestEnumerateValidationPanics(t *testing.T) {
	f := newFixture(t, "ssd", 1000, 33)
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"nil model", func(c *Config) { c.Model = nil }},
		{"zero cores", func(c *Config) { c.Model = f.qdtt; c.Cores = 0 }},
	}
	for _, c := range cases {
		cfg := f.cfg
		c.mutate(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			Enumerate(cfg, f.in)
		}()
	}
}

func TestPlanStringVariants(t *testing.T) {
	cases := []struct {
		plan Plan
		want string
	}{
		{Plan{Method: exec.FullScan, Degree: 1}, "FTS "},
		{Plan{Method: exec.FullScan, Degree: 16}, "PFTS16 "},
		{Plan{Method: exec.IndexScan, Degree: 2}, "PIS2 "},
		{Plan{Method: exec.IndexScan, Degree: 8, Prefetch: 4}, "PIS8+pf4 "},
	}
	for _, c := range cases {
		if got := c.plan.String(); !strings.HasPrefix(got, c.want) {
			t.Errorf("String() = %q, want prefix %q", got, c.want)
		}
	}
}

func TestChooseJoinWithoutProbeIndexStaysHash(t *testing.T) {
	f := newFixture(t, "ssd", 20000, 33)
	cfg := f.cfg
	cfg.Model = f.qdtt
	in := f.in
	in.Lo, in.Hi = rangeFor(in.Table, 0.001)
	probe := in
	probe.Index = nil
	jp := ChooseJoin(cfg, in, probe)
	if jp.Method != exec.HashJoin {
		t.Errorf("join without probe index chose %v, want HashJoin", jp.Method)
	}
	if jp.TotalMicros <= 0 {
		t.Error("non-positive join cost")
	}
}

// TestChooseJoinHashesOnTheWorkers: a hash join's per-row hashing is
// priced on each side's workers, inside that side's max(io, cpu). A side
// then costs no less than its scan alone and no more than the scan's own
// winner with the hashing divided over that winner's workers; the join
// costs the two sides.
func TestChooseJoinHashesOnTheWorkers(t *testing.T) {
	f := newFixture(t, "ssd", 20000, 33)
	cfg := f.cfg
	cfg.Model = f.qdtt
	build := f.in
	build.Lo, build.Hi = rangeFor(build.Table, 0.3)
	probe := build
	probe.Index = nil // no lookups: the hash join is the only method
	jp := ChooseJoin(cfg, build, probe)
	if jp.Method != exec.HashJoin {
		t.Fatalf("join without probe index chose %v", jp.Method)
	}
	for _, side := range []struct {
		name   string
		in     Input
		plan   Plan
		perRow float64
	}{
		{"build", build, jp.Build, cfg.Costs.HashInsert.Micros()},
		{"probe", probe, jp.Probe, cfg.Costs.HashProbe.Micros()},
	} {
		scan := Choose(cfg, side.in)
		hashing := scan.EstRows * side.perRow / float64(min(scan.Degree, cfg.Cores))
		if side.plan.TotalMicros < scan.TotalMicros || side.plan.TotalMicros > scan.TotalMicros+hashing {
			t.Errorf("%s side %v: want within [%.0f, %.0f] us, its scan %v plus %.0f us of hashing over its workers",
				side.name, side.plan, scan.TotalMicros, scan.TotalMicros+hashing, scan, hashing)
		}
	}
	if want := jp.Build.TotalMicros + jp.Probe.TotalMicros; jp.TotalMicros != want {
		t.Errorf("hash join costs %.0f us, its sides %.0f", jp.TotalMicros, want)
	}
}

func TestChooseJoinRespectsQueueBudget(t *testing.T) {
	f := newFixture(t, "ssd", 20000, 33)
	cfg := f.cfg
	cfg.Model = f.qdtt
	cfg.QueueBudget = 4
	in := f.in
	in.Lo, in.Hi = rangeFor(in.Table, 0.001)
	jp := ChooseJoin(cfg, in, in)
	if jp.Build.Degree > 4 || jp.Probe.Degree > 4 {
		t.Errorf("join plan exceeds queue budget: build %d, probe %d",
			jp.Build.Degree, jp.Probe.Degree)
	}
}

func TestJoinPlanSpecsRoundTrip(t *testing.T) {
	f := newFixture(t, "ssd", 1000, 33)
	in := f.in
	in.Lo, in.Hi = 5, 50
	jp := JoinPlan{
		Method: exec.IndexNLJoin,
		Build:  Plan{Method: exec.FullScan, Degree: 2},
		Probe:  Plan{Method: exec.IndexScan, Degree: 8},
	}
	spec := jp.Specs(in, in, exec.AggSum)
	if spec.Method != exec.IndexNLJoin || spec.Agg != exec.AggSum {
		t.Errorf("spec lost method/agg: %+v", spec)
	}
	if spec.Build.Degree != 2 || spec.Probe.Degree != 8 {
		t.Errorf("spec lost degrees: build %d probe %d", spec.Build.Degree, spec.Probe.Degree)
	}
}

func TestMethodStringFallback(t *testing.T) {
	if got := exec.Method(42).String(); got != "Method(42)" {
		t.Errorf("fallback = %q", got)
	}
	if got := exec.AggKind(42).String(); got != "AggKind(42)" {
		t.Errorf("fallback = %q", got)
	}
}
