package obs

import (
	"math"
	"strings"
	"testing"

	"pioqo/internal/sim"
)

func TestGaugeIntegral(t *testing.T) {
	env := sim.NewEnv(1)
	g := NewGauge(env)
	env.Go("driver", func(p *sim.Proc) {
		g.Set(2)
		p.Sleep(10 * sim.Millisecond)
		g.Set(6)
		p.Sleep(10 * sim.Millisecond)
		g.Set(0)
	})
	env.Run()
	// 2 for 10 ms, then 6 for 10 ms: integral = 80 ms·units.
	want := 80 * float64(sim.Millisecond)
	if got := g.Integral(); math.Abs(got-want) > 1e-6 {
		t.Errorf("integral = %g, want %g", got, want)
	}
	if g.Value() != 0 {
		t.Errorf("value = %g, want 0", g.Value())
	}
}

func TestSnapshotDiffAttributesInterval(t *testing.T) {
	env := sim.NewEnv(1)
	r := NewRegistry(env)
	reads := r.Counter(MetricDeviceRequests)
	depth := r.Gauge(MetricDeviceQueueDepth)

	var first, second Diff
	env.Go("driver", func(p *sim.Proc) {
		// Interval one: 100 reads at depth 8 for 20 ms.
		s0 := r.Snapshot()
		depth.Set(8)
		reads.Add(100)
		p.Sleep(20 * sim.Millisecond)
		depth.Set(0)
		first = r.Snapshot().Sub(s0)

		// Interval two: 3 reads at depth 1 for 5 ms.
		s1 := r.Snapshot()
		depth.Set(1)
		reads.Add(3)
		p.Sleep(5 * sim.Millisecond)
		depth.Set(0)
		second = r.Snapshot().Sub(s1)
	})
	env.Run()

	if first.Counters["device.requests"] != 100 || second.Counters["device.requests"] != 3 {
		t.Errorf("counter deltas = %d, %d; want 100, 3",
			first.Counters["device.requests"], second.Counters["device.requests"])
	}
	if m := first.Gauges["device.queue_depth"].Mean; math.Abs(m-8) > 1e-9 {
		t.Errorf("first interval mean depth = %g, want 8", m)
	}
	if m := second.Gauges["device.queue_depth"].Mean; math.Abs(m-1) > 1e-9 {
		t.Errorf("second interval mean depth = %g, want 1", m)
	}
	if first.Elapsed != 20*sim.Millisecond || second.Elapsed != 5*sim.Millisecond {
		t.Errorf("elapsed = %v, %v", first.Elapsed, second.Elapsed)
	}
}

func TestCounterRejectsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative counter add")
		}
	}()
	(&Counter{}).Add(-1)
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{10, 100, 1000})
	for _, v := range []float64{5, 10, 11, 500, 5000} {
		h.Observe(v)
	}
	want := []int64{2, 1, 1, 1} // (..10], (10..100], (100..1000], overflow
	for i, c := range h.counts {
		if c != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, c, want[i])
		}
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
}

func TestHistogramDiff(t *testing.T) {
	env := sim.NewEnv(1)
	r := NewRegistry(env)
	h := r.Histogram(MetricDeviceLatencyUs, []float64{100, 1000})
	h.Observe(50)
	s0 := r.Snapshot()
	h.Observe(500)
	h.Observe(5000)
	d := r.Snapshot().Sub(s0)
	hd := d.Histograms["device.latency_us"]
	if hd.Count != 2 {
		t.Errorf("diff count = %d, want 2", hd.Count)
	}
	if hd.Counts[0] != 0 || hd.Counts[1] != 1 || hd.Counts[2] != 1 {
		t.Errorf("diff counts = %v, want [0 1 1]", hd.Counts)
	}
}

func TestDiffStringRendersSorted(t *testing.T) {
	env := sim.NewEnv(1)
	r := NewRegistry(env)
	r.Counter(MetricExecScans).Add(2)
	r.Gauge(MetricBrokerCreditsInUse).Set(3)
	d := r.Snapshot().Sub(Snapshot{Counters: map[string]int64{}, Gauges: map[string]GaugeSample{}})
	out := d.String()
	if !strings.Contains(out, "exec.scans +2") || !strings.Contains(out, "broker.credits_in_use") {
		t.Errorf("diff string missing instruments:\n%s", out)
	}
	if strings.Index(out, "broker.credits_in_use") > strings.Index(out, "exec.scans") {
		t.Errorf("diff string not sorted:\n%s", out)
	}
}

func TestSamplerSeries(t *testing.T) {
	env := sim.NewEnv(1)
	v := 0.0
	s := NewSampler(env, sim.Millisecond, func() float64 { return v })
	env.Go("driver", func(p *sim.Proc) {
		s.Start()
		v = 4
		p.Sleep(5 * sim.Millisecond)
		s.Stop()
	})
	env.Run()
	series := s.Series()
	if len(series) < 5 {
		t.Fatalf("only %d samples", len(series))
	}
	if series[0].Value != 0 {
		t.Errorf("first sample = %g, want 0 (sampled before the write)", series[0].Value)
	}
	if series[2].Value != 4 {
		t.Errorf("later sample = %g, want 4", series[2].Value)
	}
	if series[1].At-series[0].At != sim.Time(sim.Millisecond) {
		t.Errorf("sample spacing = %v", series[1].At-series[0].At)
	}
}

func TestBadIntervalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero interval")
		}
	}()
	NewSampler(sim.NewEnv(1), 0, func() float64 { return 0 })
}
