package pioqo

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"pioqo/internal/obs"
)

// SpanAttr is one key/value annotation on a span, with the value rendered
// as text.
type SpanAttr struct {
	Key   string
	Value string
}

// SpanNode is one node of a query's virtual-time span tree: the query span
// at the root, the operator beneath it, and one child per worker (plus the
// prefetcher, when the plan uses one). Track distinguishes concurrent
// lanes — spans on different tracks overlapped in virtual time.
type SpanNode struct {
	Name     string
	Start    time.Duration // virtual time since the system started
	Duration time.Duration
	Track    int
	Attrs    []SpanAttr
	Children []*SpanNode
}

// Attr returns the named attribute's rendered value.
func (n *SpanNode) Attr(key string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return "", false
}

// Walk visits the node and every descendant, depth first.
func (n *SpanNode) Walk(fn func(*SpanNode)) {
	if n == nil {
		return
	}
	fn(n)
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// GaugeStat summarises one gauge over a query: its time-weighted mean
// across the query's runtime and its value when the query finished.
type GaugeStat struct {
	Mean float64
	Last float64
}

// MetricsDiff attributes engine metrics to one interval — for query
// telemetry, the interval is exactly the query's execution. Counters holds
// deltas of cumulative counters (device.requests, buffer.hits, ...); zero
// deltas are omitted. Gauges holds time-weighted means (device.queue_depth,
// buffer.cached_pages, ...).
type MetricsDiff struct {
	Elapsed  time.Duration
	Counters map[string]int64
	Gauges   map[string]GaugeStat
}

// Counter returns the named counter's delta (zero if absent).
func (d MetricsDiff) Counter(name string) int64 { return d.Counters[name] }

// String renders the diff as sorted "name value" lines.
func (d MetricsDiff) String() string {
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

// QueryTelemetry is everything observed about one executed query: the plan
// it ran, its span tree, and the engine metrics attributed to it.
type QueryTelemetry struct {
	Plan    Plan
	Runtime time.Duration
	// Root is the query span; its subtree covers optimization, the
	// operator, and the workers.
	Root *SpanNode
	// Metrics is the registry diff across exactly this query's execution,
	// including the drain of what it left in flight (a losing hedge copy's
	// read is the query's), so its Elapsed can outlast Runtime on a gather.
	Metrics MetricsDiff

	root *obs.Span // retained for Tree rendering
}

// Tree renders the span tree as an indented text outline — the body of
// EXPLAIN ANALYZE.
func (t QueryTelemetry) Tree() string { return t.root.Tree() }

// Observer receives telemetry for every query a System executes. Callbacks
// run synchronously on the calling goroutine, after the query completes.
type Observer interface {
	ObserveQuery(QueryTelemetry)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(QueryTelemetry)

// ObserveQuery calls f.
func (f ObserverFunc) ObserveQuery(t QueryTelemetry) { f(t) }

// SetObserver installs an observer called after every query the system
// runs, whichever request it ran (scans, group-bys, joins, updates), under
// Run or in a session.
// A nil observer turns per-query tracing back off.
func (s *System) SetObserver(o Observer) { s.observer = o }

// MetricsSince diffs the engine registry against an earlier snapshot taken
// with MetricsSnapshot, attributing all engine activity in between.
func (s *System) MetricsSince(earlier MetricsSnapshot) MetricsDiff {
	return fromInternalDiff(s.reg.Snapshot().Sub(earlier.snap))
}

// MetricsSnapshot is an opaque point-in-time reading of the engine's
// metrics registry.
type MetricsSnapshot struct {
	snap obs.Snapshot
}

// MetricsSnapshot captures the engine registry now.
func (s *System) MetricsSnapshot() MetricsSnapshot {
	return MetricsSnapshot{snap: s.reg.Snapshot()}
}

// telemetrySession carries the per-query trace plumbing between a query's
// phases. A nil session (tracing off) is inert: its fields read as nil and
// every obs call on them is a no-op.
type telemetrySession struct {
	tracer *obs.Tracer
	query  *obs.Span
	before obs.Snapshot
}

func (ts *telemetrySession) span() *obs.Span {
	if ts == nil {
		return nil
	}
	return ts.query
}

func (ts *telemetrySession) trc() *obs.Tracer {
	if ts == nil {
		return nil
	}
	return ts.tracer
}

// startTelemetry opens a per-query trace when anyone is listening — the
// system observer or a WithTrace option — and snapshots the registry
// so the finished query's metrics can be attributed by diff.
func (s *System) startTelemetry(q Query, eo queryOptions) *telemetrySession {
	if s.observer == nil && eo.telemetry == nil {
		return nil
	}
	tracer := obs.NewTracer(s.env, "query")
	ts := &telemetrySession{
		tracer: tracer,
		before: s.reg.Snapshot(),
	}
	ts.query = tracer.Start(nil, "query",
		obs.KV("table", q.Table.Name()),
		obs.KV("lo", q.Low), obs.KV("hi", q.High),
		obs.KV("agg", q.Agg.String()))
	return ts
}

// finish delivers telemetry to the listeners. The query span has already
// ended, at the query's exit (queryRun.process).
func (ts *telemetrySession) finish(s *System, plan Plan, runtime time.Duration, eo queryOptions) {
	if ts == nil {
		return
	}
	tel := QueryTelemetry{
		Plan:    plan,
		Runtime: runtime,
		Root:    fromInternalSpan(ts.query),
		Metrics: fromInternalDiff(s.reg.Snapshot().Sub(ts.before)),
		root:    ts.query,
	}
	if eo.telemetry != nil {
		*eo.telemetry = tel
	}
	if s.observer != nil {
		s.observer.ObserveQuery(tel)
	}
}

func fromInternalSpan(sp *obs.Span) *SpanNode {
	if sp == nil {
		return nil
	}
	n := &SpanNode{
		Name:     sp.Name,
		Start:    time.Duration(sp.Start),
		Duration: time.Duration(sp.Duration()),
		Track:    sp.Track(),
	}
	for _, a := range sp.Attrs {
		n.Attrs = append(n.Attrs, SpanAttr{Key: a.Key, Value: fmt.Sprint(a.Value)})
	}
	for _, c := range sp.Children {
		n.Children = append(n.Children, fromInternalSpan(c))
	}
	return n
}

func fromInternalDiff(d obs.Diff) MetricsDiff {
	out := MetricsDiff{
		Elapsed:  time.Duration(d.Elapsed),
		Counters: make(map[string]int64, len(d.Counters)),
		Gauges:   make(map[string]GaugeStat, len(d.Gauges)),
	}
	for name, v := range d.Counters {
		out.Counters[name] = v
	}
	for name, g := range d.Gauges {
		out.Gauges[name] = GaugeStat{Mean: g.Mean, Last: g.Last}
	}
	return out
}
