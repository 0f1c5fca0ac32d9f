package obs

import (
	"fmt"
	"sort"
	"strings"

	"pioqo/internal/sim"
)

// Counter is a monotonically increasing count. Counters in a Registry are
// cumulative for the life of the simulation — per-interval numbers come
// from snapshot diffs, never from resetting the counter, so two queries
// metered back-to-back cannot leak counts into each other.
type Counter struct {
	v int64
}

// Add increments the counter by n (>= 0). Nil-safe: an instrument a
// component was never given (it has no registry) counts nothing.
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic(fmt.Sprintf("obs: counter decrement by %d", n))
	}
	if c != nil {
		c.v += n
	}
}

// Inc increments the counter by one. Nil-safe.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Value reports the cumulative count.
func (c *Counter) Value() int64 { return c.v }

// Gauge is an instantaneous value that additionally integrates itself over
// virtual time, so any interval's time-weighted mean is exact:
//
//	mean over [a, b] = (Integral(b) - Integral(a)) / (b - a)
//
// This is the generalisation of the queue-depth integrator the device
// metrics used to carry privately.
type Gauge struct {
	env      *sim.Env
	v        float64
	integral float64 // ∫ v dt, in value·ns
	last     sim.Time
}

// NewGauge returns a zero gauge integrating against e's clock. Gauges used
// standalone (unregistered) are created here; Registry.Gauge both creates
// and registers.
func NewGauge(e *sim.Env) *Gauge { return &Gauge{env: e} }

func (g *Gauge) integrate() {
	now := g.env.Now()
	g.integral += g.v * float64(now-g.last)
	g.last = now
}

// Set replaces the gauge's value at the current virtual time. Nil-safe.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.integrate()
		g.v = v
	}
}

// Add shifts the gauge's value by delta at the current virtual time.
// Nil-safe.
func (g *Gauge) Add(delta float64) {
	if g != nil {
		g.integrate()
		g.v += delta
	}
}

// Value reports the instantaneous value.
func (g *Gauge) Value() float64 { return g.v }

// Integral reports ∫ value dt since the start of the simulation, in
// value·nanoseconds.
func (g *Gauge) Integral() float64 {
	g.integrate()
	return g.integral
}

// Histogram is a fixed-bucket histogram: Edges are ascending upper bounds,
// with an implicit overflow bucket above the last edge.
type Histogram struct {
	edges  []float64
	counts []int64
	sum    float64
	n      int64
}

// NewHistogram returns a histogram with the given ascending bucket upper
// bounds.
func NewHistogram(edges []float64) *Histogram {
	if len(edges) == 0 {
		panic("obs: histogram with no bucket edges")
	}
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			panic("obs: histogram edges not ascending")
		}
	}
	return &Histogram{edges: append([]float64(nil), edges...),
		counts: make([]int64, len(edges)+1)}
}

// Observe records one value. Nil-safe.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.edges, v)
	h.counts[i]++
	h.sum += v
	h.n++
}

// Edges returns the bucket upper bounds.
func (h *Histogram) Edges() []float64 { return h.edges }

// Count reports the number of observations.
func (h *Histogram) Count() int64 { return h.n }

// Registry is the engine's one observability recorder: the catalog's
// counters, gauges and histograms, and the optional event ring. Components
// are handed the registry once, at assembly, and record each decision with
// one Emit, which writes the ring when it is on and always bumps the
// counters the event's catalog row feeds. Observers snapshot the registry
// at any virtual time and diff two snapshots to attribute traffic to the
// interval between them.
//
// A nil *Registry records nothing: every method is a no-op and every
// instrument it hands out is nil, whose methods are no-ops too.
//
// Like the rest of the simulation state, a Registry is confined to
// simulation context and needs no locking: the sim kernel guarantees mutual
// exclusion between processes.
type Registry struct {
	env *sim.Env

	// Instruments by Metric id, nil until first use: a snapshot lists only
	// the instruments something has used.
	counters []*Counter
	gauges   []*Gauge
	hists    []*Histogram

	log *EventLog // nil while the event ring is off
}

// NewRegistry returns an empty registry bound to e's clock, with the event
// ring off.
func NewRegistry(e *sim.Env) *Registry {
	return &Registry{
		env:      e,
		counters: make([]*Counter, len(metricNames)),
		gauges:   make([]*Gauge, len(metricNames)),
		hists:    make([]*Histogram, len(metricNames)),
	}
}

// Counter returns the catalog counter m, creating it on first use.
func (r *Registry) Counter(m Metric) *Counter {
	if r == nil {
		return nil
	}
	c := r.counters[m.id]
	if c == nil {
		c = &Counter{}
		r.counters[m.id] = c
	}
	return c
}

// Gauge returns the catalog gauge m, creating it on first use.
func (r *Registry) Gauge(m Metric) *Gauge {
	if r == nil {
		return nil
	}
	g := r.gauges[m.id]
	if g == nil {
		g = NewGauge(r.env)
		r.gauges[m.id] = g
	}
	return g
}

// AdoptGauge registers an existing gauge as m — used by components (like
// the device metrics) whose gauge predates the registry.
func (r *Registry) AdoptGauge(m Metric, g *Gauge) {
	if r != nil {
		r.gauges[m.id] = g
	}
}

// Histogram returns the catalog histogram m, creating it with the given
// edges on first use. Edges are ignored for an existing histogram.
func (r *Registry) Histogram(m Metric, edges []float64) *Histogram {
	if r == nil {
		return nil
	}
	h := r.hists[m.id]
	if h == nil {
		h = NewHistogram(edges)
		r.hists[m.id] = h
	}
	return h
}

// Emit records one engine decision: into the event ring when it is on, and
// into every counter the event's catalog row feeds. A feed that adds zero
// leaves its counter untouched (and, on first use, unregistered).
// Allocation-free once the fed counters exist; a nil registry returns after
// one comparison.
func (r *Registry) Emit(t EventType, query, a, b int64) {
	if r == nil {
		return
	}
	r.log.record(t, query, a, b)
	for _, f := range events[t.id].feeds {
		if n := f.amount(a, b); n != 0 {
			r.Counter(f.m).Add(n)
		}
	}
}

// GaugeSample is a gauge's state inside a snapshot.
type GaugeSample struct {
	Value    float64 // instantaneous value at snapshot time
	Integral float64 // ∫ value dt since simulation start, value·ns
}

// HistogramSample is a histogram's state inside a snapshot.
type HistogramSample struct {
	Edges  []float64 // shared with the live histogram; treat as read-only
	Counts []int64
	Sum    float64
	Count  int64
}

// Snapshot is a point-in-time copy of every instrument in a registry.
type Snapshot struct {
	At         sim.Time
	Counters   map[string]int64
	Gauges     map[string]GaugeSample
	Histograms map[string]HistogramSample
}

// Snapshot copies the current state of every instrument.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		At:         r.env.Now(),
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]GaugeSample, len(r.gauges)),
		Histograms: make(map[string]HistogramSample, len(r.hists)),
	}
	for id, c := range r.counters {
		if c != nil {
			s.Counters[metricNames[id]] = c.v
		}
	}
	for id, g := range r.gauges {
		if g != nil {
			s.Gauges[metricNames[id]] = GaugeSample{Value: g.Value(), Integral: g.Integral()}
		}
	}
	for id, h := range r.hists {
		if h == nil {
			continue
		}
		s.Histograms[metricNames[id]] = HistogramSample{
			Edges:  h.edges,
			Counts: append([]int64(nil), h.counts...),
			Sum:    h.sum,
			Count:  h.n,
		}
	}
	return s
}

// GaugeDiff summarises a gauge over a snapshot interval.
type GaugeDiff struct {
	Mean float64 // time-weighted mean over the interval
	Last float64 // instantaneous value at the end of the interval
}

// Diff is the change between two snapshots of the same registry: counter
// deltas, gauge time-weighted means, and histogram count deltas over the
// interval. Instruments created after the earlier snapshot appear with the
// earlier state taken as zero.
type Diff struct {
	Elapsed    sim.Duration
	Counters   map[string]int64
	Gauges     map[string]GaugeDiff
	Histograms map[string]HistogramSample
}

// Sub reports the change from the earlier snapshot to s. It panics if
// earlier was taken after s.
func (s Snapshot) Sub(earlier Snapshot) Diff {
	if earlier.At > s.At {
		panic("obs: snapshot diff with reversed interval")
	}
	d := Diff{
		Elapsed:    sim.Duration(s.At - earlier.At),
		Counters:   make(map[string]int64, len(s.Counters)),
		Gauges:     make(map[string]GaugeDiff, len(s.Gauges)),
		Histograms: make(map[string]HistogramSample, len(s.Histograms)),
	}
	for name, v := range s.Counters {
		if delta := v - earlier.Counters[name]; delta != 0 {
			d.Counters[name] = delta
		}
	}
	for name, g := range s.Gauges {
		gd := GaugeDiff{Last: g.Value}
		if d.Elapsed > 0 {
			gd.Mean = (g.Integral - earlier.Gauges[name].Integral) / float64(d.Elapsed)
		} else {
			gd.Mean = g.Value
		}
		d.Gauges[name] = gd
	}
	for name, h := range s.Histograms {
		prev := earlier.Histograms[name]
		counts := append([]int64(nil), h.Counts...)
		for i := range prev.Counts {
			if i < len(counts) {
				counts[i] -= prev.Counts[i]
			}
		}
		d.Histograms[name] = HistogramSample{
			Edges:  h.Edges,
			Counts: counts,
			Sum:    h.Sum - prev.Sum,
			Count:  h.Count - prev.Count,
		}
	}
	return d
}

// String renders the diff as sorted "name value" lines: counter deltas
// first, then gauge means, omitting zero counters.
func (d Diff) String() string {
	var lines []string
	for name, v := range d.Counters {
		lines = append(lines, fmt.Sprintf("%s +%d", name, v))
	}
	for name, g := range d.Gauges {
		lines = append(lines, fmt.Sprintf("%s mean=%.2f last=%.2f", name, g.Mean, g.Last))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
