package main

import (
	"encoding/json"
	"os"
	"time"

	"pioqo"
)

// span is one recorded call into the engine's public API (or the workload
// pass that made it). Start and End are host nanoseconds since the tracer
// was created; Parent is the index of the enclosing span, -1 at the root;
// Op is the workload's operation number, shared by every span of one query.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer records spans from the benchmark's own files, around the calls
// into the engine. It keeps them in memory and writes them once, at the end
// of the run. A nil tracer — every timed end-to-end pass — records nothing:
// start and end are one nil check each.
type tracer struct {
	Workload string `json:"workload"`
	Spans    []span `json:"spans"`

	t0    time.Time
	stack []int

	// Virtual-time split, summed from the engine's own query telemetry
	// (worker spans' cpu and io_wait, admit spans' wait) while tracing.
	virtCPU, virtIO, virtAdmit time.Duration
}

func newTracer(workload string) *tracer {
	return &tracer{Workload: workload, t0: time.Now()}
}

// start opens a span under the innermost open one and returns its index.
func (t *tracer) start(name string, op int) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.Spans = append(t.Spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Op: op})
	id := len(t.Spans) - 1
	t.stack = append(t.stack, id)
	return id
}

// end closes the span start returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.Spans[id].End = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

// selfTime is span id's duration minus the part its direct children cover.
func (t *tracer) selfTime(id int) float64 {
	ns := t.Spans[id].End - t.Spans[id].Start
	for _, s := range t.Spans {
		if s.Parent == id {
			ns -= s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}

// observe turns on the engine's own tracing for a traced pass — the event
// log and a query observer — and folds every query's virtual-time split
// into the tracer.
func (t *tracer) observe(sys *pioqo.System) {
	if t == nil {
		return
	}
	sys.EnableEventLog(4096)
	sys.SetObserver(pioqo.ObserverFunc(func(tel pioqo.QueryTelemetry) {
		tel.Root.Walk(func(n *pioqo.SpanNode) {
			t.virtCPU += attrDuration(n, "cpu")
			t.virtIO += attrDuration(n, "io_wait")
			if n.Name == "admit" {
				t.virtAdmit += attrDuration(n, "wait")
			}
		})
	}))
}

// attrDuration parses a span attribute the engine rendered as a duration
// ("1.50us", "3.250ms"); 0 when absent.
func attrDuration(n *pioqo.SpanNode, key string) time.Duration {
	v, ok := n.Attr(key)
	if !ok {
		return 0
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		return 0
	}
	return d
}

// write flushes the spans to path as JSON.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
