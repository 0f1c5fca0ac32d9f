// Command bench is the repository's one benchmark suite: five workloads
// measured on two clocks (virtual time, which the paper's claims are about,
// and host time, which running the simulator costs), per-layer probes and
// counts, and a traced run. See README.md in this directory and
// BENCHMARK.json at the repository root.
//
//	bash bench/run.sh --workload paper_q_sweep --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --mode suite --seed 1 --out a.json
//	bash bench/run.sh --mode compare a.json b.json
//
// The load comes from one process, one driver goroutine, one host thread
// and one sim.Env at a time; every workload is a closed loop — one cold query at a time, or
// one batch submitted at virtual time zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

var workloads = []workload{
	{"paper_q_sweep", setupPaperSweep},
	{"serving_mix", setupServingMix},
	{"cluster_gather", setupClusterGather},
	{"plan_serving", setupPlanServing},
	{"operator_mix", setupOperatorMix},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	mode := fs.String("mode", "run", "run one workload, run the whole `suite`, or `compare` two suite records")
	name := fs.String("workload", "", "workload to run (mode run)")
	seed := fs.Int64("seed", 1, "workload seed: every generated input follows from it")
	seconds := fs.Float64("seconds", 10, "host seconds of timed passes per run")
	trace := fs.Int("trace", 0, "1 = the traced run: layer probes, counts, spans and a CPU profile")
	out := fs.String("out", "", "write the JSON record here (mode suite)")
	dir := fs.String("dir", ".bench_build", "directory for trace files, CPU profiles and what the checkout knows of its host's speed")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark contract, for the bounds compare applies")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// One host thread. A sim.Proc hand-off never runs two goroutines at
	// once, and with a second thread every hand-off may cross threads: on
	// the 2-core reference host that made paper_q_sweep 1.4× slower and
	// its pass times twice as scattered.
	runtime.GOMAXPROCS(1)

	switch *mode {
	case "compare":
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench --mode compare a.json b.json")
			return 2
		}
		return compare(fs.Arg(0), fs.Arg(1), *spec, stdout, stderr)
	case "suite":
		return suite(*seed, *seconds, *trace == 1, *out, *dir, stdout, stderr)
	case "run":
		for _, w := range workloads {
			if w.name == *name {
				var o outcome
				var err error
				if *trace == 1 {
					o, err = runLayers(w, *seed, *seconds, referenceSizes(), *dir, stderr)
				} else {
					o, err = runEndToEnd(w, *seed, *seconds, referenceSizes(), *dir, stderr)
				}
				if err != nil {
					fmt.Fprintln(stderr, "bench:", err)
					return 1
				}
				report(stdout, o)
				if !o.Correct {
					return 1
				}
				return 0
			}
		}
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	fmt.Fprintf(stderr, "bench: unknown mode %q\n", *mode)
	return 2
}

// report prints every metric by name with its unit, then — as the last
// line — the one JSON object the benchmark contract asks for.
func report(w io.Writer, o outcome) {
	names := make([]string, 0, len(o.Metrics))
	for name := range o.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := o.Metrics[name]
		fmt.Fprintf(w, "%-16s %-40s %16.6f %-6s [min %.6f max %.6f]\n", o.Workload, name, m.Value, m.Unit, m.Min, m.Max)
	}
	for _, note := range o.Notes {
		fmt.Fprintf(w, "%-16s FAILED: %s\n", o.Workload, note)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.Correct, o.Attempted, o.Failed, map[string]value{}}
	for name, m := range o.Metrics {
		last.Metrics[name] = value{m.Value, m.Unit}
	}
	line, _ := json.Marshal(last) // a struct of numbers and strings cannot fail
	fmt.Fprintf(w, "%s\n", line)
}

// record is what one suite run leaves behind: where and what it ran, and
// each workload's outcome.
type record struct {
	Host struct {
		Cores      int     `json:"cores"`
		GOMAXPROCS int     `json:"gomaxprocs"`
		Go         string  `json:"go"`
		Commit     string  `json:"commit"`
		Seed       int64   `json:"seed"`
		Seconds    float64 `json:"seconds"`
	} `json:"host"`
	// Claim is always null: the suite measures, it claims no gain.
	Claim     *string   `json:"claim"`
	Workloads []outcome `json:"workloads"`
}

// suite runs every workload in turn and writes one record.
func suite(seed int64, seconds float64, traced bool, path, dir string, stdout, stderr io.Writer) int {
	var rec record
	rec.Host.Cores = runtime.NumCPU()
	rec.Host.GOMAXPROCS = runtime.GOMAXPROCS(0)
	rec.Host.Go = runtime.Version()
	rec.Host.Commit = gitCommit()
	rec.Host.Seed = seed
	rec.Host.Seconds = seconds
	status := 0
	for _, w := range workloads {
		o, err := runEndToEnd(w, seed, seconds, referenceSizes(), dir, stderr)
		if err == nil && traced {
			var layers outcome
			if layers, err = runLayers(w, seed, seconds, referenceSizes(), dir, stderr); err == nil {
				for name, m := range layers.Metrics {
					o.Metrics[name] = m
				}
				o.Correct = o.Correct && layers.Correct
				o.Notes = append(o.Notes, layers.Notes...)
			}
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		report(stdout, o)
		if !o.Correct {
			status = 1
		}
		rec.Workloads = append(rec.Workloads, o)
	}
	if path != "" {
		data, err := json.MarshalIndent(rec, "", "  ")
		if err == nil {
			err = os.WriteFile(path, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return status
}

// gitCommit reads the checked-out commit without running git; a checkout
// that is not a repository reports "unknown".
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	sha, err := os.ReadFile(".git/" + strings.TrimPrefix(ref, "ref: "))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(sha))
}
