package experiments

import (
	"sort"

	"pioqo/internal/exec"
	"pioqo/internal/obs"
	"pioqo/internal/sim"
	"pioqo/internal/stats"
	"pioqo/internal/workload"
)

// qdDegrees is the parallel-degree sweep profiled by the §2 reproduction.
var qdDegrees = []int{1, 2, 4, 8, 16, 32}

// QDProfileRow summarises the device queue-depth profile of one PIS run.
type QDProfileRow struct {
	Degree    int
	MeanDepth float64
	P50Depth  int
	MaxDepth  int
}

// QDSample is one queue-depth reading in a machine-readable profile.
type QDSample struct {
	TimeUs float64 `json:"t_us"`
	Depth  int     `json:"depth"`
}

// QDProfileSeriesRow is one degree's full sampled series plus its summary —
// the machine-readable form behind pioqo-bench qdprofile -json.
type QDProfileSeriesRow struct {
	Degree     int        `json:"degree"`
	IntervalUs float64    `json:"interval_us"`
	MeanDepth  float64    `json:"mean_depth"`
	P50Depth   int        `json:"p50_depth"`
	MaxDepth   int        `json:"max_depth"`
	Samples    []QDSample `json:"samples"`
}

// qdInterval is the §2 profile's sampling period.
const qdInterval = 250 * sim.Microsecond

// qdProfileRun executes one PIS run at the given degree on a fresh SSD
// system and returns the sampled queue-depth series.
func (sc Scale) qdProfileRun(degree int) []obs.Sample {
	s := sc.system(workload.Config{
		Name: "qdprofile", RowsPerPage: 1, Device: workload.SSD,
	})
	lo, hi := s.RangeFor(0.3)
	_, series := profileDepth(s, s.Spec(exec.IndexScan, degree, lo, hi), qdInterval)
	return series
}

// profileDepth runs spec on s while sampling the device's outstanding
// request count every interval.
func profileDepth(s *workload.System, spec exec.Spec, interval sim.Duration) (exec.Result, []obs.Sample) {
	depth := obs.NewSampler(s.Env, interval, func() float64 {
		return float64(s.Dev.Metrics().Outstanding())
	})
	var res exec.Result
	s.Env.Go("query", func(p *sim.Proc) {
		depth.Start()
		res = exec.RunScan(p, s.Ctx, spec)
		depth.Stop()
	})
	s.Env.Run()
	return res, depth.Series()
}

// qdSummary summarises a queue-depth series — mean, median and maximum —
// over the samples from the first non-zero one to the last, so the ramp-up
// and the drain do not dilute the plateau. Degree is left to the caller.
func qdSummary(series []obs.Sample) QDProfileRow {
	for len(series) > 0 && series[0].Value == 0 {
		series = series[1:]
	}
	for len(series) > 0 && series[len(series)-1].Value == 0 {
		series = series[:len(series)-1]
	}
	if len(series) == 0 {
		return QDProfileRow{}
	}
	depths := make([]int, len(series))
	sum := 0
	for i, smp := range series {
		depths[i] = int(smp.Value)
		sum += depths[i]
	}
	sort.Ints(depths)
	return QDProfileRow{
		MeanDepth: float64(sum) / float64(len(depths)),
		P50Depth:  stats.Percentile(depths, 0.50),
		MaxDepth:  depths[len(depths)-1],
	}
}

// QDProfile reproduces the paper's §2 profiling observation — "the I/O
// pattern of PIS with parallel degree n is the parallel random I/O with
// constant queue depth of n" — by sampling the SSD's outstanding request
// count while parallel index scans of each degree run.
func (sc Scale) QDProfile() []QDProfileRow {
	return sweep(sc.workers(), len(qdDegrees), func(i int) QDProfileRow {
		row := qdSummary(sc.qdProfileRun(qdDegrees[i]))
		row.Degree = qdDegrees[i]
		return row
	})
}

// QDProfileSeries runs the same sweep as QDProfile but keeps every sample,
// for machine-readable export.
func (sc Scale) QDProfileSeries() []QDProfileSeriesRow {
	return sweep(sc.workers(), len(qdDegrees), func(i int) QDProfileSeriesRow {
		series := sc.qdProfileRun(qdDegrees[i])
		st := qdSummary(series)
		row := QDProfileSeriesRow{
			Degree:     qdDegrees[i],
			IntervalUs: qdInterval.Micros(),
			MeanDepth:  st.MeanDepth,
			P50Depth:   st.P50Depth,
			MaxDepth:   st.MaxDepth,
			Samples:    make([]QDSample, len(series)),
		}
		for si, smp := range series {
			row.Samples[si] = QDSample{TimeUs: sim.Duration(smp.At).Micros(), Depth: int(smp.Value)}
		}
		return row
	})
}
