package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// contract is the part of BENCHMARK.json compare needs: each end-to-end
// metric's direction and the share of A's median it may worsen by.
type contract struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compare applies the benchmark's bounds to two suite records, A the
// baseline and B the candidate, one row per (metric, workload):
//
//   - a host metric may worsen by its bound, relative to A's median; where
//     either side's own min–max spread is wider than the bound the row is
//     unresolved, not ok;
//   - virtual metrics, counts and the failure ratio must be identical when
//     both records are of one commit and seed (an A/A run), and otherwise
//     may worsen by their bound;
//
// and returns non-zero if any row is worse.
func compare(pathA, pathB, specPath string, stdout, stderr io.Writer) int {
	var a, b record
	var spec contract
	for _, err := range []error{readJSON(pathA, &a), readJSON(pathB, &b), readJSON(specPath, &spec)} {
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	same := a.Host.Commit == b.Host.Commit && a.Host.Commit != "unknown" && a.Host.Seed == b.Host.Seed
	fmt.Fprintf(stdout, "A %s seed %d · B %s seed %d · same commit and seed: %v\n",
		a.Host.Commit, a.Host.Seed, b.Host.Commit, b.Host.Seed, same)
	fmt.Fprintf(stdout, "%-16s %-28s %14s %14s %9s  %-24s %s\n", "workload", "metric", "A", "B", "change", "A min..max", "verdict")

	bounded := map[string]int{}
	for i, m := range spec.EndToEnd {
		bounded[m.Name] = i
	}
	worse := 0
	row := func(wl, name string, ma, mb metric, verdict string) {
		change := 0.0
		if ma.Value != 0 {
			change = 100 * (mb.Value - ma.Value) / ma.Value
		}
		fmt.Fprintf(stdout, "%-16s %-28s %14.6g %14.6g %+8.2f%%  %-24s %s\n", wl, name, ma.Value, mb.Value, change,
			fmt.Sprintf("%.6g..%.6g", ma.Min, ma.Max), verdict)
		if strings.HasPrefix(verdict, "worse") {
			worse++
		}
	}
	for _, oa := range a.Workloads {
		var ob *outcome
		for i := range b.Workloads {
			if b.Workloads[i].Workload == oa.Workload {
				ob = &b.Workloads[i]
			}
		}
		if ob == nil {
			fmt.Fprintf(stdout, "%-16s missing from B: worse\n", oa.Workload)
			worse++
			continue
		}
		names := make([]string, 0, len(oa.Metrics))
		for name := range oa.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			ma := oa.Metrics[name]
			mb, ok := ob.Metrics[name]
			if !ok {
				row(oa.Workload, name, ma, mb, "worse (missing from B)")
				continue
			}
			i, isBounded := bounded[name]
			switch {
			case !ma.Host && same:
				verdict := "ok"
				if ma.Value != mb.Value {
					verdict = "worse (must be identical on one commit and seed)"
				}
				row(oa.Workload, name, ma, mb, verdict)
			case isBounded:
				m := spec.EndToEnd[i]
				delta := (mb.Value - ma.Value) / ma.Value
				if m.Better == "higher" {
					delta = -delta
				}
				verdict := "ok"
				switch {
				case delta > m.Bound:
					verdict = fmt.Sprintf("worse (bound %.1f%%)", 100*m.Bound)
				case ma.Host && ((ma.Max-ma.Min)/ma.Value > m.Bound || (mb.Max-mb.Min)/mb.Value > m.Bound):
					verdict = fmt.Sprintf("unresolved (spread wider than bound %.1f%%)", 100*m.Bound)
				}
				row(oa.Workload, name, ma, mb, verdict)
			}
			// Per-layer metrics carry no bound: across commits they explain
			// a row above, they do not fail one.
		}
		fa := float64(oa.Failed) / float64(oa.Attempted)
		fb := float64(ob.Failed) / float64(ob.Attempted)
		verdict := "ok"
		if fb > fa {
			verdict = "worse (the failure ratio may not rise)"
		}
		row(oa.Workload, "failed_ops/ops", exact("ratio", fa), exact("ratio", fb), verdict)
	}
	if worse > 0 {
		fmt.Fprintf(stdout, "%d rows worse\n", worse)
		return 1
	}
	return 0
}
