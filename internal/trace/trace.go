// Package trace provides time-series instrumentation over simulated
// devices: a sampler that records the device queue depth over virtual
// time, and summary statistics over the samples.
//
// The paper relies on exactly this view (§2): "By profiling the I/O queue
// depth of the SSD during the execution of the PIS operator using n
// workers, a queue depth of n is clearly observable." The profiler
// reproduces that observable for any operator run.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"pioqo/internal/device"
	"pioqo/internal/obs"
	"pioqo/internal/sim"
	"pioqo/internal/stats"
)

// Sample is one reading of the device's outstanding request count.
type Sample struct {
	At    sim.Time
	Depth int
}

// Profile is a queue-depth time series.
type Profile struct {
	Samples  []Sample
	Interval sim.Duration
}

// Profiler samples a device's queue depth on a fixed virtual-time period.
// Start it before the work of interest; it stops automatically when the
// simulation goes idle (its sampling stops scheduling once stopped
// explicitly, or keeps the run alive otherwise — so call Stop from the
// driving process when the measured work completes).
//
// It is a thin device-specific view over the obs.Sampler primitive.
type Profiler struct {
	interval sim.Duration
	sampler  *obs.Sampler
}

// NewProfiler returns a profiler sampling dev every interval.
func NewProfiler(env *sim.Env, dev device.Device, interval sim.Duration) *Profiler {
	if interval <= 0 {
		panic("trace: non-positive sampling interval")
	}
	return &Profiler{
		interval: interval,
		sampler: obs.NewSampler(env, interval, func() float64 {
			return float64(dev.Metrics().Outstanding())
		}),
	}
}

// Start begins sampling at the current virtual time.
func (p *Profiler) Start() { p.sampler.Start() }

// Stop ends sampling; the scheduled next tick becomes a no-op.
func (p *Profiler) Stop() { p.sampler.Stop() }

// Profile returns the collected series.
func (p *Profiler) Profile() Profile {
	series := p.sampler.Series()
	prof := Profile{Interval: p.interval, Samples: make([]Sample, len(series))}
	for i, s := range series {
		prof.Samples[i] = Sample{At: s.At, Depth: int(s.Value)}
	}
	return prof
}

// Stats summarises a profile.
type Stats struct {
	Samples int
	Mean    float64
	Max     int
	// P50 and P90 are depth percentiles across samples.
	P50, P90 int
}

// Stats computes summary statistics over the series, ignoring leading and
// trailing zero-depth samples (ramp-up and drain).
func (pr Profile) Stats() Stats {
	samples := pr.Samples
	for len(samples) > 0 && samples[0].Depth == 0 {
		samples = samples[1:]
	}
	for len(samples) > 0 && samples[len(samples)-1].Depth == 0 {
		samples = samples[:len(samples)-1]
	}
	st := Stats{Samples: len(samples)}
	if len(samples) == 0 {
		return st
	}
	depths := make([]int, len(samples))
	sum := 0
	for i, s := range samples {
		depths[i] = s.Depth
		sum += s.Depth
		if s.Depth > st.Max {
			st.Max = s.Depth
		}
	}
	sort.Ints(depths)
	st.Mean = float64(sum) / float64(len(depths))
	st.P50 = stats.Percentile(depths, 0.50)
	st.P90 = stats.Percentile(depths, 0.90)
	return st
}

// Histogram renders the series as a textual depth histogram with the given
// number of buckets over the observed depth range — a quick visual check
// that an operator sustains its intended queue depth.
func (pr Profile) Histogram(buckets int) string {
	st := pr.Stats()
	if st.Samples == 0 || buckets <= 0 {
		return "(no samples)"
	}
	// Bucket the observed non-zero depth range [min, max] with integer
	// boundaries min + i·span/buckets, so the top bucket ends exactly at
	// the maximum observed depth instead of overshooting the range.
	min := st.Max
	for _, s := range pr.Samples {
		if s.Depth > 0 && s.Depth < min {
			min = s.Depth
		}
	}
	span := st.Max - min + 1
	if buckets > span {
		buckets = span
	}
	counts := make([]int, buckets)
	for _, s := range pr.Samples {
		if s.Depth == 0 {
			continue
		}
		counts[(s.Depth-min)*buckets/span]++
	}
	maxCount := 0
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	var b strings.Builder
	for i, c := range counts {
		lo := min + i*span/buckets
		hi := min + (i+1)*span/buckets - 1
		bar := ""
		if maxCount > 0 {
			bar = strings.Repeat("#", c*40/maxCount)
		}
		fmt.Fprintf(&b, "qd %3d-%3d | %-40s %d\n", lo, hi, bar, c)
	}
	return strings.TrimRight(b.String(), "\n")
}
