package experiments

import (
	"fmt"
	"strings"
	"testing"

	"pioqo/internal/golden"
	"pioqo/internal/workload"
)

// The host-parallel sweep must be invisible in the output: every grid point
// is an isolated simulation collected in index order, so any worker count
// must yield byte-identical results. These tests render figures to the same
// TSV the pioqo-bench command prints and compare serial against parallel
// runs byte for byte.

func renderFig4(rows []Fig4Row) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%s\t%.6g\t%s\t%v\n", r.Config, r.Selectivity, r.Method, r.Runtime)
	}
	return b.String()
}

func renderFig8(rows []Fig8Row) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%s\t%.6g\t%s\t%s\t%v\t%v\t%.2f\n",
			r.Config, r.Selectivity, r.OldPlan, r.NewPlan,
			r.OldRuntime, r.NewRuntime, r.Speedup)
	}
	return b.String()
}

func renderFig12(rows []Fig12Row) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%d\t%d\t%.2f\t%.2f\t%.2f\n",
			r.Band, r.Depth, r.Measured, r.Interpolated, r.ErrPercent)
	}
	return b.String()
}

// serialAndParallel runs render with Parallel=1 and Parallel=4 and asserts
// byte-identical output.
func serialAndParallel(t *testing.T, name string, render func(sc Scale) string) {
	t.Helper()
	serial, parallel := quick(), quick()
	serial.Parallel = 1
	parallel.Parallel = 4
	got1, got4 := render(serial), render(parallel)
	if d := golden.FirstDiff(got1, got4); d != "" {
		t.Errorf("%s: parallel sweep output (new) differs from serial (old) at %s", name, d)
	}
	if got1 == "" {
		t.Errorf("%s: rendered empty output", name)
	}
}

func TestFig4ParallelDeterminism(t *testing.T) {
	t.Parallel()
	serialAndParallel(t, "fig4 E33-SSD", func(sc Scale) string {
		return renderFig4(sc.Fig4(cfgFor(33, workload.SSD), []int{32}))
	})
}

func TestFig8ParallelDeterminism(t *testing.T) {
	t.Parallel()
	serialAndParallel(t, "fig8 E33-SSD", func(sc Scale) string {
		return renderFig8(sc.Fig8(cfgFor(33, workload.SSD)))
	})
}

func TestFig12ParallelDeterminism(t *testing.T) {
	t.Parallel()
	serialAndParallel(t, "fig12", func(sc Scale) string {
		return renderFig12(sc.Fig12())
	})
}
