//go:build ignore

// Trajectory turns one benchmark suite record into a BENCH_TRAJECTORY.jsonl
// row, or checks a record against the last row. scripts/trajectory.sh runs
// the suite and calls it:
//
//	go run scripts/trajectory.go row LABEL suite.json >> BENCH_TRAJECTORY.jsonl
//	go run scripts/trajectory.go check BENCH_TRAJECTORY.jsonl suite.json
//
// A row keeps, per workload, what a change must not move by accident: the
// operations attempted and failed, and every metric the record does not mark
// as a host reading, exactly — the same set bench's compare requires to be
// identical on one commit and seed. The host metrics ride along for the
// record and are never compared: they depend on the machine.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// suiteRecord is the part of bench's --out record a row is made from.
type suiteRecord struct {
	Host struct {
		Commit string `json:"commit"`
		Seed   int64  `json:"seed"`
	} `json:"host"`
	Workloads []struct {
		Workload  string `json:"workload"`
		Correct   bool   `json:"correct"`
		Attempted int    `json:"attempted"`
		Failed    int    `json:"failed"`
		Passes    int    `json:"passes"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Host  bool    `json:"host"`
		} `json:"metrics"`
	} `json:"workloads"`
}

// row is one line of BENCH_TRAJECTORY.jsonl.
type row struct {
	Label     string                 `json:"label"`
	Commit    string                 `json:"commit"`
	Seed      int64                  `json:"seed"`
	Workloads map[string]workloadRow `json:"workloads"`
}

type workloadRow struct {
	// Exact holds the operation counts and every metric the record does not
	// mark as a host reading (virtual time, plan regret, the per-layer
	// counters and ratios): check compares them bit for bit.
	Exact map[string]float64 `json:"exact"`
	// Host holds host_s, setup_s and host_alloc_mb, the medians of Passes
	// timed passes of one run: recorded, never compared.
	Host   map[string]float64 `json:"host"`
	Passes int                `json:"passes"`
}

func hostMetric(name string) bool {
	return name == "host_s" || name == "setup_s" || name == "host_alloc_mb"
}

func makeRow(label, path string) (row, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return row{}, err
	}
	var rec suiteRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return row{}, fmt.Errorf("%s: %v", path, err)
	}
	r := row{Label: label, Commit: rec.Host.Commit, Seed: rec.Host.Seed, Workloads: map[string]workloadRow{}}
	for _, w := range rec.Workloads {
		if !w.Correct || w.Failed != 0 {
			return row{}, fmt.Errorf("%s: %d of %d operations failed or an answer was wrong", w.Workload, w.Failed, w.Attempted)
		}
		wr := workloadRow{
			Exact:  map[string]float64{"attempted": float64(w.Attempted), "failed": float64(w.Failed)},
			Host:   map[string]float64{},
			Passes: w.Passes,
		}
		for name, m := range w.Metrics {
			switch {
			case !m.Host:
				wr.Exact[name] = m.Value
			case hostMetric(name):
				wr.Host[name] = m.Value
			}
		}
		r.Workloads[w.Workload] = wr
	}
	return r, nil
}

// lastRow reads the final row of a trajectory file.
func lastRow(path string) (row, error) {
	f, err := os.Open(path)
	if err != nil {
		return row{}, err
	}
	defer f.Close()
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return row{}, err
	}
	if last == "" {
		return row{}, fmt.Errorf("%s has no rows", path)
	}
	var r row
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return row{}, fmt.Errorf("%s: last row: %v", path, err)
	}
	return r, nil
}

// diff lists every exact metric that differs between the recorded row and
// the new one, or that only one of them has.
func diff(was, now row) []string {
	var out []string
	if was.Seed != now.Seed {
		out = append(out, fmt.Sprintf("seed %d, last row %d", now.Seed, was.Seed))
	}
	names := map[string]bool{}
	for w := range was.Workloads {
		names[w] = true
	}
	for w := range now.Workloads {
		names[w] = true
	}
	for w := range names {
		a, inA := was.Workloads[w]
		b, inB := now.Workloads[w]
		if !inA || !inB {
			out = append(out, fmt.Sprintf("%s: in the last row %v, in this run %v", w, inA, inB))
			continue
		}
		metrics := map[string]bool{}
		for m := range a.Exact {
			metrics[m] = true
		}
		for m := range b.Exact {
			metrics[m] = true
		}
		for m := range metrics {
			va, okA := a.Exact[m]
			vb, okB := b.Exact[m]
			switch {
			case !okA:
				out = append(out, fmt.Sprintf("%s %s: not in the last row, this run %v", w, m, vb))
			case !okB:
				out = append(out, fmt.Sprintf("%s %s: last row %v, not in this run", w, m, va))
			case va != vb:
				out = append(out, fmt.Sprintf("%s %s: last row %v, this run %v", w, m, va, vb))
			}
		}
	}
	sort.Strings(out)
	return out
}

func main() {
	if len(os.Args) != 4 || os.Args[1] != "row" && os.Args[1] != "check" {
		fmt.Fprintln(os.Stderr, "usage: trajectory row LABEL suite.json | trajectory check TRAJECTORY.jsonl suite.json")
		os.Exit(2)
	}
	var err error
	if os.Args[1] == "row" {
		err = printRow(os.Args[2], os.Args[3])
	} else {
		err = check(os.Args[2], os.Args[3])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "trajectory:", err)
		os.Exit(1)
	}
}

func printRow(label, record string) error {
	r, err := makeRow(label, record)
	if err != nil {
		return err
	}
	line, _ := json.Marshal(r) // maps of numbers and strings cannot fail
	fmt.Printf("%s\n", line)
	return nil
}

func check(trajectory, record string) error {
	was, err := lastRow(trajectory)
	if err != nil {
		return err
	}
	now, err := makeRow("", record)
	if err != nil {
		return err
	}
	if d := diff(was, now); len(d) > 0 {
		return fmt.Errorf("this run differs from the last row (%s, %s) in %d metrics:\n  %s\n"+
			"a change meant to move them appends its own row: bash scripts/trajectory.sh LABEL",
			was.Label, was.Commit, len(d), strings.Join(d, "\n  "))
	}
	fmt.Printf("trajectory: every exact metric matches the last row (%s, %s)\n", was.Label, was.Commit)
	return nil
}
