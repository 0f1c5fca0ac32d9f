package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// smokeSizes shrinks every workload until the whole suite, probes included,
// runs in a few seconds.
func smokeSizes() sizes {
	return sizes{
		PoolPages:      32,
		CalibReads:     160,
		SweepPages:     12 * 32,
		SweepSels:      3,
		SweepStarts:    1,
		ServingQueries: 100,
		ServingPages:   256,
		ClusterRows:    192 * 33,
		ClusterRounds:  1,
		PlanDefault:    300,
		PlanGreedy:     2000,
		PlanSample:     16,
		OpRows:         192 * 33,
		OpRounds:       1,
	}
}

// spec is BENCHMARK.json as the benchmark contract defines it.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	var s spec
	if err := readJSON("../BENCHMARK.json", &s); err != nil {
		t.Fatal(err)
	}
	return s
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// virtual renders an outcome's seed-determined part: everything but host
// time, memory and set-up.
func virtual(o outcome) string {
	var b strings.Builder
	for _, name := range []string{"virt_makespan_ms", "virt_lat_mid_ms", "virt_lat_tail_ms", "virt_speedup_vs_dtt", "plan_regret_ratio"} {
		fmt.Fprintf(&b, "%s=%v ", name, o.Metrics[name].Value)
	}
	return b.String()
}

func TestWorkloadsMatchSpec(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the suite has %d", len(s.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if s.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the suite %q", i, s.Workloads[i].Name, w.name)
		}
	}
}

func TestEndToEnd(t *testing.T) {
	s := readSpec(t)
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			a, err := runEndToEnd(w, 1, 0, smokeSizes(), "", io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !a.Correct || a.Failed != 0 || a.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d notes=%v", a.Correct, a.Attempted, a.Failed, a.Notes)
			}
			if len(a.Metrics) != len(s.EndToEnd) {
				t.Errorf("emitted %d end-to-end metrics, BENCHMARK.json names %d", len(a.Metrics), len(s.EndToEnd))
			}
			for _, m := range s.EndToEnd {
				got, ok := a.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || got.Value == 0 {
					t.Errorf("metric %s: emitted=%v unit %q (want %q) value %v (want non-zero)", m.Name, ok, got.Unit, m.Unit, got.Value)
				}
			}
			again, err := runEndToEnd(w, 1, 0, smokeSizes(), "", io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if virtual(a) != virtual(again) || a.Attempted != again.Attempted {
				t.Errorf("seed 1 twice:\n%s\n%s", virtual(a), virtual(again))
			}
			other, err := runEndToEnd(w, 2, 0, smokeSizes(), "", io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if other.Failed != 0 || other.Attempted != a.Attempted {
				t.Errorf("seed 2: attempted %d (seed 1: %d), failed %d %v", other.Attempted, a.Attempted, other.Failed, other.Notes)
			}
			if virtual(a) == virtual(other) {
				t.Errorf("seeds 1 and 2 give the same virtual metrics: %s", virtual(a))
			}
		})
	}
}

func TestLayers(t *testing.T) {
	s := readSpec(t)
	dir := t.TempDir()
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			o, err := runLayers(w, 1, 0.05, smokeSizes(), dir, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !o.Correct || o.Failed != 0 {
				t.Fatalf("correct=%v failed=%d notes=%v", o.Correct, o.Failed, o.Notes)
			}
			if len(o.Metrics) != len(s.PerLayer) {
				t.Errorf("emitted %d per-layer metrics, BENCHMARK.json names %d", len(o.Metrics), len(s.PerLayer))
			}
			for _, m := range s.PerLayer {
				got, ok := o.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("metric %s: emitted=%v unit %q (want %q)", m.Name, ok, got.Unit, m.Unit)
				}
			}
			for name := range o.Metrics {
				if !metricName.MatchString(name) || len(name) > 64 {
					t.Errorf("metric name %q is outside the contract", name)
				}
			}
			if _, err := os.Stat(filepath.Join(dir, "trace-"+w.name+".json")); err != nil {
				t.Error(err)
			}

			// A workload built to bypass a layer must leave that layer's
			// counters at zero.
			bypass := map[string]string{
				"shard.scatters":      "cluster_gather",
				"adapt.retunes":       "operator_mix",
				"buffer.dirty_writes": "operator_mix",
				"scanshare.laps":      "serving_mix",
			}
			for name, only := range bypass {
				if v := o.Metrics[name].Value; w.name != only && v != 0 {
					t.Errorf("%s = %v outside %s", name, v, only)
				}
			}
			if v := o.Metrics["device.requests"].Value; (w.name == "plan_serving") != (v == 0) {
				t.Errorf("device.requests = %v", v)
			}
		})
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, hostS float64, makespan float64) string {
		var rec record
		rec.Host.Commit, rec.Host.Seed = "abc", 1
		rec.Workloads = []outcome{{Workload: "w", Correct: true, Attempted: 10, Metrics: map[string]metric{
			"host_s":           {Value: hostS, Unit: "s", Min: hostS * 0.99, Max: hostS * 1.01, Host: true},
			"virt_makespan_ms": exact("ms", makespan),
		}}}
		path := filepath.Join(dir, name)
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 1.0, 50)
	for _, c := range []struct {
		name     string
		hostS    float64
		makespan float64
		want     int
	}{
		{"same", 1.0, 50, 0},
		{"host within bound", 1.02, 50, 0},
		{"host beyond any bound", 1.5, 50, 1},
		{"virtual time moved on one commit", 1.0, 50.001, 1},
	} {
		var out bytes.Buffer
		if got := compare(base, write("b.json", c.hostS, c.makespan), "../BENCHMARK.json", &out, &out); got != c.want {
			t.Errorf("%s: compare returned %d, want %d\n%s", c.name, got, c.want, out.String())
		}
	}
}
