//go:build ignore

// Seedset runs one benchmark workload over the seed set in two checkouts
// and prints, per metric, each seed's value in both, the change, and the
// geometric mean of the changes. It is how a change to the broker or the
// buffer pool is shown to help or hold on every seed and not on seed 1
// alone:
//
//	go run scripts/seedset.go -workload serving_mix PARENT_DIR CHANGE_DIR
//	go run scripts/seedset.go -workload serving_mix -seeds 1,7,42 A B
//
// Each checkout builds and runs its own benchmark (bench/run.sh, from the
// checkout's root). Only the virtual-time metrics and the plan regret are
// printed: they are exact, so one run of each seed decides them. Host time
// needs alternating pairs and one frozen host-speed.json, which this does
// not do. A run that fails an operation or an answer stops the script.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// seedSet is the seed set every broker or pool change is shown on.
const seedSet = "0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,42,100,700,705"

// result is the last line bench prints for a run.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "serving_mix", "workload to run")
	seeds := flag.String("seeds", seedSet, "comma-separated seeds")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: go run scripts/seedset.go [-workload W] [-seeds 1,7,42] PARENT_DIR CHANGE_DIR")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	var list []int64
	for _, s := range strings.Split(*seeds, ",") {
		n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			fail(fmt.Errorf("seed %q: %v", s, err))
		}
		list = append(list, n)
	}
	dirs := [2]string{flag.Arg(0), flag.Arg(1)}
	var runs [2][]result
	for _, seed := range list {
		for k, dir := range dirs {
			r, err := run(dir, *workload, seed)
			if err != nil {
				fail(err)
			}
			runs[k] = append(runs[k], r)
		}
		fmt.Fprintf(os.Stderr, "seed %d done\n", seed)
	}
	report(os.Stdout, *workload, list, runs)
}

// run runs workload at seed in the checkout at dir: three timed passes, the
// fewest bench makes, then the answer oracle.
func run(dir, workload string, seed int64) (result, error) {
	cmd := exec.Command("bash", "bench/run.sh", "--workload", workload,
		"--seed", strconv.FormatInt(seed, 10), "--seconds", "0", "--trace", "0")
	cmd.Dir = dir
	var out, errs bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errs
	err := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &r); jerr != nil || err != nil {
		return r, fmt.Errorf("%s seed %d: %v %v\n%s", dir, seed, err, jerr, errs.String())
	}
	if !r.Correct || r.Failed != 0 {
		return r, fmt.Errorf("%s seed %d: %d of %d operations failed or an answer was wrong", dir, seed, r.Failed, r.Attempted)
	}
	return r, nil
}

// report prints, for every virt_* metric and the plan regret, one line per
// seed and a summary: the geometric mean of the change, and on how many
// seeds the change's value is lower and higher.
func report(w io.Writer, workload string, seeds []int64, runs [2][]result) {
	var names []string
	for name := range runs[0][0].Metrics {
		if strings.HasPrefix(name, "virt_") || name == "plan_regret_ratio" {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%s %s\n%8s %14s %14s %9s\n", workload, name, "seed", "parent", "change", "Δ %")
		logSum, lower, higher, n := 0.0, 0, 0, 0
		for i, seed := range seeds {
			a, b := runs[0][i].Metrics[name].Value, runs[1][i].Metrics[name].Value
			fmt.Fprintf(w, "%8d %14.4f %14.4f %+9.2f\n", seed, a, b, 100*(b/a-1))
			if a > 0 && b > 0 {
				logSum += math.Log(b / a)
				n++
			}
			switch {
			case b < a:
				lower++
			case b > a:
				higher++
			}
		}
		geo := math.NaN()
		if n > 0 {
			geo = 100 * (math.Exp(logSum/float64(n)) - 1)
		}
		fmt.Fprintf(w, "%8s %+38.2f   lower on %d, higher on %d of %d seeds\n\n", "geomean", geo, lower, higher, len(seeds))
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "seedset:", err)
	os.Exit(1)
}
