package experiments

import (
	"testing"

	"pioqo/internal/device"
	"pioqo/internal/exec"
	"pioqo/internal/obs"
	"pioqo/internal/sim"
	"pioqo/internal/workload"
)

func TestProfilerObservesPISQueueDepth(t *testing.T) {
	// §2 of the paper: PIS with n workers sustains a device queue depth
	// of n. Profile an 8-way PIS and check the plateau.
	s := workload.New(workload.Options{
		Device: workload.SSD, Rows: 60000, RowsPerPage: 1,
		PoolPages: 512, Synthetic: true,
	})
	lo, hi := s.RangeFor(0.3)
	res, series := profileDepth(s, s.Spec(exec.IndexScan, 8, lo, hi), 500*sim.Microsecond)
	if res.RowsMatched == 0 {
		t.Fatal("query matched nothing")
	}
	if len(series) < 50 {
		t.Fatalf("only %d samples; interval too coarse for this run", len(series))
	}
	st := qdSummary(series)
	if st.P50Depth != 8 {
		t.Errorf("median queue depth = %d, want 8 (PIS with 8 workers)", st.P50Depth)
	}
	if st.MeanDepth < 6 || st.MeanDepth > 9 {
		t.Errorf("mean queue depth = %.1f, want ~8", st.MeanDepth)
	}
	if st.MaxDepth > 10 {
		t.Errorf("max queue depth = %d, want bounded near 8", st.MaxDepth)
	}
}

func TestProfilerIdleDeviceReadsZero(t *testing.T) {
	env := sim.NewEnv(1)
	dev := device.NewSSD(env, device.DefaultSSDConfig())
	depth := obs.NewSampler(env, sim.Millisecond, func() float64 { return float64(dev.Metrics().Outstanding()) })
	env.Go("idle", func(p *sim.Proc) {
		depth.Start()
		p.Sleep(10 * sim.Millisecond)
		depth.Stop()
	})
	env.Run()
	if st := qdSummary(depth.Series()); st != (QDProfileRow{}) {
		t.Errorf("idle profile summarises to %+v, want zeros (every sample trimmed)", st)
	}
}

// series builds a queue-depth series one sample per nanosecond.
func series(depths ...int) []obs.Sample {
	out := make([]obs.Sample, len(depths))
	for i, d := range depths {
		out[i] = obs.Sample{At: sim.Time(i), Value: float64(d)}
	}
	return out
}

func TestStatsPercentiles(t *testing.T) {
	st := qdSummary(series(0, 2, 4, 4, 4, 8, 0)) // zeros trimmed
	if st.P50Depth != 4 || st.MaxDepth != 8 {
		t.Errorf("p50=%d max=%d, want 4 and 8", st.P50Depth, st.MaxDepth)
	}
	if st.MeanDepth != 4.4 {
		t.Errorf("mean = %f, want 4.4 (over the five samples left)", st.MeanDepth)
	}
}

func TestStatsPercentilesSmallProfiles(t *testing.T) {
	// Nearest-rank on tiny profiles: P50 of two samples is the lower one
	// (rank ceil(0.5·2) = 1), and every percentile stays in range.
	cases := []struct {
		depths   []int
		p50, max int
	}{
		{[]int{5}, 5, 5},
		{[]int{3, 7}, 3, 7},
		{[]int{2, 5, 9}, 5, 9},
	}
	for _, c := range cases {
		st := qdSummary(series(c.depths...))
		if st.P50Depth != c.p50 || st.MaxDepth != c.max {
			t.Errorf("depths %v: p50=%d max=%d, want %d and %d",
				c.depths, st.P50Depth, st.MaxDepth, c.p50, c.max)
		}
	}
}
