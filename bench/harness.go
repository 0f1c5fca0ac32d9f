package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// A run makes at least minPasses timed passes, each on freshly built
// systems — virtual metrics and counts must be identical in all of them —
// and times at least minSetups set-ups.
const (
	minPasses = 3
	minSetups = 5
)

// metric is one named measurement. Min and Max span the run's passes. Host
// marks a reading of the host's clock or memory; every other metric is
// virtual time or a count and repeats exactly for one commit and seed.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Host  bool    `json:"host,omitempty"`
}

// outcome is one run of one workload.
type outcome struct {
	Workload  string            `json:"workload"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Passes    int               `json:"passes"`
	Metrics   map[string]metric `json:"metrics"`
	Notes     []string          `json:"notes,omitempty"`
}

// spread is a host metric read once per pass: the median, with its range.
func spread(unit string, xs []float64) metric {
	m := metric{Value: median(xs), Unit: unit, Min: xs[0], Max: xs[0], Host: true}
	for _, x := range xs {
		if x < m.Min {
			m.Min = x
		}
		if x > m.Max {
			m.Max = x
		}
	}
	return m
}

// exact is a virtual-time metric or a count; host is a single host reading.
func exact(unit string, v float64) metric { return metric{Value: v, Unit: unit, Min: v, Max: v} }

func host(unit string, v float64) metric {
	return metric{Value: v, Unit: unit, Min: v, Max: v, Host: true}
}

// apiMetric names the per-layer metric each public API call's spans add up
// to in a traced pass.
var apiMetric = map[string]string{
	"Plan":              "api.plan_host_s",
	"Execute":           "api.execute_host_s",
	"ExecutePlan":       "api.execute_host_s",
	"ExecuteConcurrent": "api.execute_host_s",
	"ExecuteJoin":       "api.execute_host_s",
	"ExecuteGroupBy":    "api.execute_host_s",
	"Update":            "api.execute_host_s",
	"CreateTable":       "api.create_table_host_s",
	"Calibrate":         "api.calibrate_host_s",
}

// timed is one pass with the host cost of running it.
type timed struct {
	passResult
	hostS    float64
	allocMB  float64
	mallocs  float64
	gcCycles float64
	layers   map[string]float64
}

// timePass runs one pass of inst and measures it from outside.
func timePass(inst instance, tr *tracer) timed {
	systems := inst.systems()
	was := snapshot(systems)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	root := tr.start("pass", -1)
	start := time.Now()
	p := inst.pass(tr)
	elapsed := time.Since(start).Seconds()
	tr.end(root)
	runtime.ReadMemStats(&m1)
	return timed{
		passResult: p,
		hostS:      elapsed,
		allocMB:    float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6,
		mallocs:    float64(m1.Mallocs - m0.Mallocs),
		gcCycles:   float64(m1.NumGC - m0.NumGC),
		layers:     layerCounts(systems, was, p),
	}
}

// fingerprint hashes everything about a pass that is virtual time or a
// count. Two passes of one seed must hash alike.
func (t timed) fingerprint() uint64 {
	h := fnv.New64a()
	word := func(v float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	word(float64(t.ops))
	word(float64(t.failed))
	word(t.makespanMs)
	for _, l := range t.lat {
		word(l)
	}
	names := make([]string, 0, len(t.layers))
	for name := range t.layers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h.Write([]byte(name))
		word(t.layers[name])
	}
	return h.Sum64()
}

// runEndToEnd makes timed passes of w, each on freshly built systems, until
// they add up to seconds of host time, then runs the answer oracle once.
func runEndToEnd(w workload, seed int64, seconds float64, sz sizes, dir string, log io.Writer) (outcome, error) {
	out := outcome{Workload: w.name, Correct: true, Metrics: map[string]metric{}}
	var setups, setupSpins, hosts, allocs []float64
	var passes []timed
	var last timed
	var inst instance
	setup := func() error {
		before := spin()
		start := time.Now()
		var err error
		if inst, err = w.setup(seed, sz, nil); err != nil {
			return fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		setupSpins = append(setupSpins, (before+spin())/2)
		return nil
	}
	for total := 0.0; len(hosts) < minPasses || total < seconds; total += last.hostS {
		if err := setup(); err != nil {
			return out, err
		}
		last = timePass(inst, nil)
		hosts = append(hosts, last.hostS)
		allocs = append(allocs, last.allocMB)
		if len(passes) > 0 && (last.fingerprint() != passes[0].fingerprint() || len(last.segs) != len(passes[0].segs)) {
			out.Correct = false
			out.Notes = append(out.Notes, fmt.Sprintf("pass %d differs from pass 1 in virtual time or counts", len(hosts)))
			continue
		}
		passes = append(passes, last)
		fmt.Fprintf(log, "# %s pass %d: set-up %.3fs host %.3fs alloc %.1fMB\n",
			w.name, len(hosts), setups[len(setups)-1], last.hostS, last.allocMB)
	}
	start := time.Now()
	v := inst.verify(last.passResult)
	fmt.Fprintf(log, "# %s oracle: %d answers checked, %d wrong, %.3fs host\n",
		w.name, v.checked, v.failed, time.Since(start).Seconds())
	for _, line := range v.info {
		fmt.Fprintf(log, "# %s %s\n", w.name, line)
	}
	// setup_s is a median; make sure it is one of at least minSetups.
	for len(setups) < minSetups {
		if err := setup(); err != nil {
			return out, err
		}
	}

	first := passes[0]
	out.Passes = len(hosts)
	out.Attempted = first.ops
	out.Failed = first.failed + v.failed
	out.Notes = append(append(out.Notes, first.notes...), v.notes...)
	if out.Failed > 0 {
		out.Correct = false
	}
	lat := append([]float64(nil), first.lat...)
	sort.Float64s(lat)
	hostS, setupS := spread("s", hosts), spread("s", setups)
	var exponent float64
	hostS.Value, exponent = atFullSpeed(w.name, passes, dir)
	// Set-ups are scaled to the reference speed like segments, with the
	// passes' fit.
	for i, s := range setupSpins {
		setups[i] *= math.Pow(s/referenceSpin, -exponent)
	}
	setupS.Value = median(setups)
	fmt.Fprintf(log, "# %s: %d segments; host time grows with the spin's slowdown to the power %.2f\n", w.name, len(first.segs), exponent)
	fmt.Fprintf(log, "# %s: latency sample N=%d; speed-up base %.3f ms, regret base %.3f ms\n",
		w.name, len(lat), v.speedupBase, v.regretBase)

	out.Metrics["setup_s"] = setupS
	out.Metrics["host_s"] = hostS
	out.Metrics["host_alloc_mb"] = spread("MB", allocs)
	out.Metrics["virt_makespan_ms"] = exact("ms", first.makespanMs)
	out.Metrics["virt_lat_mid_ms"] = exact("ms", midMean(lat))
	out.Metrics["virt_lat_tail_ms"] = exact("ms", tailMean(lat))
	out.Metrics["virt_speedup_vs_dtt"] = exact("ratio", v.speedupVsDTT)
	out.Metrics["plan_regret_ratio"] = exact("ratio", v.regretRatio)
	return out, nil
}

// referenceSpin is the speed host_s and setup_s are stated at: that of a
// host on which spin takes 100 µs. The reference host's full speed is 106 µs.
const referenceSpin = 100e-6

// hostSpeedFile is where a checkout keeps, per workload, the sums of the
// fit below over every pass it has timed: one run of three passes may see
// too little change of speed to fit anything; the runs of a checkout
// together do. The first runs in a fresh checkout are the least steady.
const hostSpeedFile = "host-speed.json"

// atFullSpeed is host_s: the host time of one pass with the host's changing
// speed taken out. The shared reference host slows down by up to half for
// minutes at a time, which neither a median nor a minimum over a run's few
// passes survives. But the work of a segment is identical in every pass,
// and a spin on either side of it tells how fast the host ran. So segment
// time is fitted as (spin / referenceSpin)^a, one exponent a per workload,
// least squares within segments; every timing is scaled to the reference
// speed with it, and the segments' medians over the run's passes are
// summed. dir is the checkout's build directory; "" fits the run alone.
func atFullSpeed(workload string, passes []timed, dir string) (seconds, exponent float64) {
	fits := map[string][2]float64{} // workload → Σxy, Σxx
	if dir != "" {
		_ = readJSON(filepath.Join(dir, hostSpeedFile), &fits) // absent on a checkout's first run
	}
	// x[j][i] is the log slowdown around segment i of pass j, y its log time.
	// One spin is a noisy reading — an interrupt doubles it — and noise in x
	// drags the fitted exponent towards 0, so each reading is replaced by
	// the median of the nine around it: speed changes over seconds, spins
	// are milliseconds apart.
	segments := len(passes[0].segs)
	x, y := make([][]float64, len(passes)), make([][]float64, len(passes))
	for j, p := range passes {
		speed := make([]float64, len(p.spins))
		for k := range p.spins {
			lo, hi := k-4, k+5
			if lo < 0 {
				lo = 0
			}
			if hi > len(p.spins) {
				hi = len(p.spins)
			}
			speed[k] = median(p.spins[lo:hi])
		}
		x[j], y[j] = make([]float64, segments), make([]float64, segments)
		for i, t := range p.segs {
			x[j][i] = math.Log((speed[i] + speed[i+1]) / 2 / referenceSpin)
			y[j][i] = math.Log(t)
		}
	}
	// Least squares within segments: each segment has its own level.
	fit := fits[workload]
	for i := 0; i < segments; i++ {
		var mx, my float64
		for j := range passes {
			mx += x[j][i] / float64(len(passes))
			my += y[j][i] / float64(len(passes))
		}
		for j := range passes {
			fit[0] += (x[j][i] - mx) * (y[j][i] - my)
			fit[1] += (x[j][i] - mx) * (x[j][i] - mx)
		}
	}
	exponent = math.Max(0, math.Min(1, ratio(fit[0], fit[1])))
	scaled := make([]float64, len(passes))
	for i := 0; i < segments; i++ {
		for j := range passes {
			scaled[j] = math.Exp(y[j][i] - exponent*x[j][i])
		}
		seconds += median(scaled)
	}
	if dir != "" {
		fits[workload] = fit
		if data, err := json.Marshal(fits); err == nil && os.MkdirAll(dir, 0o755) == nil {
			_ = os.WriteFile(filepath.Join(dir, hostSpeedFile), data, 0o644) // a lost update costs one run's share of the fit
		}
	}
	return seconds, exponent
}

// runLayers is the traced run: every layer probe, then one untraced and one
// traced pass of w under a CPU profile. None of its numbers feed the
// end-to-end metrics.
func runLayers(w workload, seed int64, seconds float64, sz sizes, dir string, log io.Writer) (outcome, error) {
	out := outcome{Workload: w.name, Correct: true, Metrics: map[string]metric{}}
	for name, m := range runProbes(seconds/50, sz) {
		out.Metrics[name] = m
	}

	inst, err := w.setup(seed, sz, nil)
	if err != nil {
		return out, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	plain := timePass(inst, nil)
	v := inst.verify(plain.passResult)

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return out, err
	}
	tr := newTracer(w.name)
	if inst, err = w.setup(seed, sz, tr); err != nil {
		return out, fmt.Errorf("%s: traced set-up: %w", w.name, err)
	}
	profPath := filepath.Join(dir, "cpu-"+w.name+".prof")
	prof, err := os.Create(profPath)
	if err != nil {
		return out, err
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return out, err
	}
	traced := timePass(inst, tr)
	pprof.StopCPUProfile()
	if err := prof.Close(); err != nil {
		return out, err
	}
	if err := tr.write(filepath.Join(dir, "trace-"+w.name+".json")); err != nil {
		return out, err
	}
	fmt.Fprintf(log, "# %s: untraced pass %.3fs, traced pass %.3fs, %d spans\n",
		w.name, plain.hostS, traced.hostS, len(tr.Spans))

	out.Passes = 2
	out.Attempted = plain.ops
	out.Failed = plain.failed + v.failed
	out.Notes = append(append(out.Notes, plain.notes...), v.notes...)
	if plain.ops != traced.ops || plain.makespanMs != traced.makespanMs {
		out.Notes = append(out.Notes, "tracing changed the pass's virtual time")
		out.Failed++
	}
	out.Correct = out.Failed == 0

	plain.layers["adapt.gap_to_best_static_pct"] = v.gapToStatic
	for name, value := range plain.layers {
		unit := "count"
		if strings.HasSuffix(name, "_ratio") || strings.HasSuffix(name, "_share") {
			unit = "ratio"
		} else if strings.HasSuffix(name, "_pct") {
			unit = "%"
		} else if strings.HasSuffix(name, "_us_mean") {
			unit = "us"
		}
		out.Metrics[name] = exact(unit, value)
	}

	for _, name := range []string{"api.plan_host_s", "api.execute_host_s", "api.create_table_host_s", "api.calibrate_host_s"} {
		out.Metrics[name] = host("s", 0)
	}
	for id, sp := range tr.Spans {
		if sp.Name == "pass" {
			out.Metrics["api.workload_self_s"] = host("s", tr.selfTime(id))
		} else if name, ok := apiMetric[sp.Name]; ok {
			out.Metrics[name] = host("s", out.Metrics[name].Value+float64(sp.End-sp.Start)/1e9)
		}
	}
	virt := float64(tr.virtCPU + tr.virtIO + tr.virtAdmit)
	out.Metrics["virt.admission_wait_share"] = exact("ratio", ratio(float64(tr.virtAdmit), virt))
	out.Metrics["virt.io_wait_share"] = exact("ratio", ratio(float64(tr.virtIO), virt))
	out.Metrics["virt.cpu_share"] = exact("ratio", ratio(float64(tr.virtCPU), virt))
	out.Metrics["obs.trace_overhead_pct"] = host("%", 100*(traced.hostS-plain.hostS)/plain.hostS)
	out.Metrics["host.allocs_per_op"] = host("count", ratio(plain.mallocs, float64(plain.ops)))
	out.Metrics["host.gc_cycles"] = host("count", plain.gcCycles)

	shares, err := hostShares(profPath)
	if err != nil {
		return out, fmt.Errorf("%s: reading CPU profile: %w", w.name, err)
	}
	for name, share := range shares {
		out.Metrics[name] = host("ratio", share)
	}
	return out, nil
}
