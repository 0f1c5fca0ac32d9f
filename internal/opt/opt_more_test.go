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
