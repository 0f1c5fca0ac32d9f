package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"pioqo"
)

// sizes fixes how much work one pass of each workload does. The reference
// sizes are the ones every number in BENCHMARK.json and README.md was
// measured at; the smoke test shrinks them.
type sizes struct {
	PoolPages  int // buffer pool frames of every system
	CalibReads int // per-point calibration read budget

	SweepPages  int64 // paper_q_sweep heap pages per table (12× the pool)
	SweepSels   int   // selectivities per Table-1 config
	SweepStarts int   // seed-drawn range starts per selectivity

	ServingQueries int   // serving_mix batch size (≥ 1000 so p99 has ≥ 10 samples beyond it)
	ServingPages   int64 // heap pages of each of the three hot tables

	ClusterRows   int64 // cluster_gather rows per table, over 8 shards
	ClusterRounds int   // times the query mix repeats, each at a new seed-drawn nudge

	PlanDefault int // plan_serving Plan calls on the default path, per system
	PlanGreedy  int // ... and on the greedy path
	PlanSample  int // plans compared for regret and the estimated DTT speed-up

	OpRows   int64 // operator_mix rows of the big tables
	OpRounds int   // times the operator mix repeats, each on new seed-drawn ranges
}

func referenceSizes() sizes {
	return sizes{
		PoolPages:      1024,
		CalibReads:     1600,
		SweepPages:     12 * 1024,
		SweepSels:      9,
		SweepStarts:    2,
		ServingQueries: 1500,
		ServingPages:   6 * 1024,
		ClusterRows:    12 * 1024 * 33,
		ClusterRounds:  5,
		PlanDefault:    30_000,
		PlanGreedy:     1_500_000,
		PlanSample:     512,
		OpRows:         12 * 1024 * 33,
		OpRounds:       7,
	}
}

// workload is one of the suite's five permanent workloads.
type workload struct {
	name string
	// setup assembles fresh systems from the seed: tables, indexes,
	// calibration and the generated queries. Everything it does is set-up
	// time. With a tracer it also records its API calls and switches the
	// engine's own tracing on.
	setup func(seed int64, sz sizes, tr *tracer) (instance, error)
}

// instance is one freshly built set of systems, good for one timed pass.
type instance interface {
	// systems lists the engines the pass drives, for the layer counts.
	systems() []*pioqo.System
	// pass runs the workload once. It is the timed region.
	pass(tr *tracer) passResult
	// verify is the untimed answer oracle: it re-executes the workload's
	// queries under other plans and reports disagreements, plan regret and
	// the speed-up over depth-oblivious plans.
	verify(p passResult) verdict
}

// passResult is what one timed pass produced. Everything in it is virtual
// time or a count, so it must repeat exactly on the next pass.
type passResult struct {
	ops, failed int
	lat         []float64 // virtual ms per operation (admission wait + execution)
	makespanMs  float64
	pairs       []pair             // Q executed under both optimizers, for verify
	counts      map[string]float64 // layer counts only the workload can see
	notes       []string           // why an operation failed

	// segs is the host time of each segment of the pass, in order, and
	// spins the host's speed before the first segment and after each one
	// (see spin): the two things here that are not virtual.
	segs, spins []float64
	readings    int
	mark        time.Time
}

// startPass opens a pass's first segment. Each speed reading of the pass
// is the median of readings spins: 1 where segments are milliseconds apart
// and neighbouring readings steady each other, more for serving_mix, whose
// one batch is the whole pass.
func startPass(readings int) passResult {
	p := passResult{readings: readings}
	p.spins = append(p.spins, p.speed())
	p.mark = time.Now()
	return p
}

func (p *passResult) speed() float64 {
	spins := make([]float64, p.readings)
	for i := range spins {
		spins[i] = spin()
	}
	return median(spins)
}

// lap closes one segment of the pass — an operation, or a chunk of plans —
// and books its host time.
func (p *passResult) lap() {
	p.segs = append(p.segs, time.Since(p.mark).Seconds())
	p.spins = append(p.spins, p.speed())
	p.mark = time.Now()
}

var spinSink float64

// spin times a fixed arithmetic loop of about 0.1 ms: a reading of how fast
// the host runs right now. The shared 2-core reference host alternates, in
// plateaus of seconds to tens of seconds, between a speed at which this
// loop takes 0.106 ms and one at which it takes 0.157 ms, with rarer ones
// either side; whole passes slow down with it, by the spin's slowdown to
// the power 0.65 (paper_q_sweep) to 1.0 (plan_serving). See atFullSpeed.
func spin() float64 {
	start := time.Now()
	for i := 1; i < 15000; i++ {
		spinSink += math.Log(float64(i))
	}
	return time.Since(start).Seconds()
}

func (p *passResult) fail(format string, args ...any) {
	p.failed++
	if len(p.notes) < 8 {
		p.notes = append(p.notes, fmt.Sprintf(format, args...))
	}
}

// op books one sequential operation: its virtual runtime joins the latency
// sample and the makespan, and an error marks it failed.
func (p *passResult) op(runtime time.Duration, err error, what string) {
	p.ops++
	if err != nil {
		p.fail("%s: %v", what, err)
		return
	}
	p.lat = append(p.lat, ms(runtime))
	p.makespanMs += ms(runtime)
}

// verdict is the oracle's report.
type verdict struct {
	checked, failed int
	notes           []string // why an answer was wrong
	info            []string // lines for the run's log

	speedupVsDTT float64 // Σ runtime(DTT plans) / Σ runtime(QDTT plans)
	speedupBase  float64 // the denominator, virtual ms
	regretRatio  float64 // Σ chosen-plan runtime / Σ best measured runtime, ≥ 1
	regretBase   float64 // the denominator, virtual ms
	gapToStatic  float64 // operator_mix: adaptive vs best static degree, %
}

func (v *verdict) fail(format string, args ...any) {
	v.failed++
	if len(v.notes) < 8 {
		v.notes = append(v.notes, fmt.Sprintf(format, args...))
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// answer is what every plan of one query must agree on.
type answer struct {
	value int64
	found bool
	rows  int64
}

func answerOf(r pioqo.Result) answer { return answer{r.Value, r.Found, r.Rows} }

// pair is the paper's Q executed cold under the plan the QDTT optimizer
// chose and under the one the depth-oblivious (DTT) optimizer chose.
type pair struct {
	sys         *pioqo.System
	q           pioqo.Query
	chosen, dtt pioqo.Result
	exactRows   bool // synthetic table: C2 is a permutation, so Rows == High-Low+1
}

// runPair plans q with both optimizers and executes both plans cold.
func runPair(tr *tracer, sys *pioqo.System, q pioqo.Query, op int) (pair, error) {
	pr := pair{sys: sys, q: q}
	for _, arm := range []struct {
		po  pioqo.PlanOptions
		dst *pioqo.Result
	}{{pioqo.PlanOptions{}, &pr.chosen}, {pioqo.PlanOptions{DepthOblivious: true}, &pr.dtt}} {
		sp := tr.start("Plan", op)
		plan, err := sys.Plan(q, arm.po)
		tr.end(sp)
		if err != nil {
			return pr, err
		}
		sp = tr.start("ExecutePlan", op)
		*arm.dst, err = sys.ExecutePlan(q, plan, pioqo.Cold())
		tr.end(sp)
		if err != nil {
			return pr, err
		}
	}
	return pr, nil
}

// forced is the candidate set plan regret is measured against.
var forced = []pioqo.Plan{
	{Method: pioqo.IndexScan, Degree: 1},
	{Method: pioqo.FullTableScan, Degree: 1},
	{Method: pioqo.IndexScan, Degree: 8},
	{Method: pioqo.IndexScan, Degree: 32},
	{Method: pioqo.FullTableScan, Degree: 8},
}

// judge executes the query of each of the first n pairs cold under every
// forced candidate. All of them, the QDTT plan and the DTT plan must return
// the answer of the degree-1 full scan; the ratio of the QDTT plans' time
// to the best measured is v's regret. The speed-up over the DTT plans is
// taken over all pairs, unless the workload took it over its own subset.
func judge(v *verdict, pairs []pair, n int) {
	var chosen, dtt, best float64
	for _, pr := range pairs {
		chosen += ms(pr.chosen.Runtime)
		dtt += ms(pr.dtt.Runtime)
	}
	if chosen > 0 && v.speedupBase == 0 {
		v.speedupVsDTT, v.speedupBase = dtt/chosen, chosen
	}
	if n > len(pairs) {
		n = len(pairs)
	}
	chosen = 0
	for _, pr := range pairs[:n] {
		results := []pioqo.Result{pr.chosen, pr.dtt}
		for _, plan := range forced {
			res, err := pr.sys.ExecutePlan(pr.q, plan, pioqo.Cold())
			if err != nil {
				v.checked++
				v.fail("forced %v×%d on [%d,%d]: %v", plan.Method, plan.Degree, pr.q.Low, pr.q.High, err)
				continue
			}
			results = append(results, res)
		}
		ref, bestRun := answer{}, pr.chosen.Runtime
		for _, res := range results {
			if res.Plan.Method == pioqo.FullTableScan && res.Plan.Degree == 1 {
				ref = answerOf(res)
			}
			if res.Runtime < bestRun {
				bestRun = res.Runtime
			}
		}
		for _, res := range results {
			v.checked++
			if answerOf(res) != ref {
				v.fail("%v×%d on [%d,%d] = %+v, serial full scan = %+v",
					res.Plan.Method, res.Plan.Degree, pr.q.Low, pr.q.High, answerOf(res), ref)
			}
		}
		if pr.exactRows && ref.rows != pr.q.High-pr.q.Low+1 {
			v.fail("[%d,%d] matched %d rows of a permutation", pr.q.Low, pr.q.High, ref.rows)
		}
		chosen += ms(pr.chosen.Runtime)
		best += ms(bestRun)
	}
	if best > 0 {
		v.regretRatio, v.regretBase = chosen/best, best
	}
}

// Latency is summarised by means over rank ranges of the ascending sample,
// not by order statistics: most workloads' samples are small and lumpy (a
// dozen kinds of operation), and a single rank of such a sample either
// sticks to one value for every seed or jumps between two clusters.
// midMean is the mean of the middle half (the interquartile mean, a steady
// stand-in for the median); tailMean is the mean of the slowest 1 %, and of
// at least the ten slowest (what lies beyond p99 when N ≥ 1000).
func midMean(sorted []float64) float64 {
	return mean(sorted[len(sorted)/4 : len(sorted)-len(sorted)/4])
}

func tailMean(sorted []float64) float64 {
	n := len(sorted) / 100
	if n < 10 {
		n = 10
	}
	if n > len(sorted) {
		n = len(sorted)
	}
	return mean(sorted[len(sorted)-n:])
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// drawRange picks a seed-drawn start for a range covering sel of domain.
func drawRange(rng *rand.Rand, domain int64, sel float64) (lo, hi int64) {
	width := int64(sel * float64(domain))
	if width < 1 {
		width = 1
	}
	if width > domain {
		width = domain
	}
	lo = rng.Int63n(domain - width + 1)
	return lo, lo + width - 1
}

// geometric returns n geometrically spaced values in [lo, hi].
func geometric(lo, hi float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		f := 0.0
		if n > 1 {
			f = float64(i) / float64(n-1)
		}
		out[i] = lo * math.Pow(hi/lo, f)
	}
	return out
}

// newSystem builds one calibrated engine. Set-up time.
func newSystem(tr *tracer, cfg pioqo.Config, sz sizes, tables func(*pioqo.System) error) (*pioqo.System, error) {
	sp := tr.start("New", -1)
	sys := pioqo.New(cfg)
	tr.end(sp)
	if err := tables(sys); err != nil {
		return nil, err
	}
	sp = tr.start("Calibrate", -1)
	_, err := sys.Calibrate(pioqo.CalibrationOptions{MaxReads: sz.CalibReads})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	tr.observe(sys)
	return sys, nil
}

func createTable(tr *tracer, sys *pioqo.System, name string, rows int64, rpp int, opts ...pioqo.TableOption) (*pioqo.Table, error) {
	sp := tr.start("CreateTable", -1)
	defer tr.end(sp)
	return sys.CreateTable(name, rows, rpp, opts...)
}
