package obs

import (
	"fmt"
	"strings"

	"pioqo/internal/sim"
)

// Attr is one span attribute. Values are formatted with %v at render time.
type Attr struct {
	Key   string
	Value interface{}
}

// KV builds an attribute.
func KV(key string, value interface{}) Attr { return Attr{Key: key, Value: value} }

// Span is one node of a virtual-time trace: a named interval with
// attributes and child spans. Spans are created through a Tracer and closed
// with End; all times are read from the tracer's sim clock.
//
// Every method is nil-safe: instrumented code paths hold a possibly-nil
// *Span and need no guards, so tracing costs nothing when disabled.
type Span struct {
	Name     string
	Start    sim.Time
	Finish   sim.Time
	Attrs    []Attr
	Children []*Span

	tracer *Tracer
	tid    int
	ended  bool
}

// SetAttr appends (or replaces) an attribute on the span.
func (s *Span) SetAttr(key string, value interface{}) {
	if s == nil {
		return
	}
	for i := range s.Attrs {
		if s.Attrs[i].Key == key {
			s.Attrs[i].Value = value
			return
		}
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: value})
}

// Attr returns the formatted value of the named attribute, if present.
func (s *Span) Attr(key string) (string, bool) {
	if s == nil {
		return "", false
	}
	for _, a := range s.Attrs {
		if a.Key == key {
			return fmt.Sprint(a.Value), true
		}
	}
	return "", false
}

// End closes the span at the current virtual time. Ending twice is a no-op
// (the first End wins), so deferred and explicit closes compose.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.Finish = s.tracer.env.Now()
}

// Duration reports the span's virtual-time length. An unended span reads
// zero.
func (s *Span) Duration() sim.Duration {
	if s == nil || !s.ended {
		return 0
	}
	return sim.Duration(s.Finish - s.Start)
}

// Track reports the span's track id: 0 for the main lane, a distinct id per
// StartTrack span. Spans on different tracks ran concurrently.
func (s *Span) Track() int {
	if s == nil {
		return 0
	}
	return s.tid
}

// Trace collects spans across one or more tracers. It is environment-
// agnostic: a benchmark sweep that builds a fresh sim.Env per configuration
// attaches one Tracer per env to a shared Trace and exports them all into
// one Chrome trace file (each tracer becomes a process there).
type Trace struct {
	tracers []*Tracer
}

// NewTrace returns an empty trace.
func NewTrace() *Trace { return &Trace{} }

// Spans returns every root span across all tracers, in creation order.
func (t *Trace) Spans() []*Span {
	var roots []*Span
	for _, tr := range t.tracers {
		roots = append(roots, tr.roots...)
	}
	return roots
}

// NewTracer attaches a tracer bound to env's clock. name labels the tracer
// (the process name in Chrome exports).
func (t *Trace) NewTracer(env *sim.Env, name string) *Tracer {
	tr := &Tracer{env: env, name: name, pid: len(t.tracers) + 1}
	t.tracers = append(t.tracers, tr)
	return tr
}

// NewTracer returns a standalone tracer with its own single-tracer Trace —
// the common case of tracing one query on one system.
func NewTracer(env *sim.Env, name string) *Tracer {
	return NewTrace().NewTracer(env, name)
}

// Tracer opens spans against one sim.Env's clock.
//
// A nil *Tracer is valid and inert: Start returns a nil span, so components
// thread an optional tracer without guards.
type Tracer struct {
	env  *sim.Env
	name string
	pid  int

	roots   []*Span
	nextTID int
}

// Name returns the tracer's label.
func (tr *Tracer) Name() string {
	if tr == nil {
		return ""
	}
	return tr.name
}

// Start opens a span at the current virtual time under parent (nil parent
// makes a root span). The span inherits its parent's track; use StartTrack
// for concurrent siblings (workers) that should render side by side.
func (tr *Tracer) Start(parent *Span, name string, attrs ...Attr) *Span {
	return tr.start(parent, name, false, attrs)
}

// StartTrack opens a span like Start but on a fresh track (Chrome thread
// lane), for spans that run concurrently with their siblings.
func (tr *Tracer) StartTrack(parent *Span, name string, attrs ...Attr) *Span {
	return tr.start(parent, name, true, attrs)
}

func (tr *Tracer) start(parent *Span, name string, newTrack bool, attrs []Attr) *Span {
	if tr == nil {
		return nil
	}
	s := &Span{Name: name, Start: tr.env.Now(), Attrs: attrs, tracer: tr}
	switch {
	case newTrack:
		tr.nextTID++
		s.tid = tr.nextTID
	case parent != nil:
		s.tid = parent.tid
	}
	if parent != nil {
		parent.Children = append(parent.Children, s)
	} else {
		tr.roots = append(tr.roots, s)
	}
	return s
}

// maxTreeChildren caps how many children of one span the text tree shows;
// the remainder collapse into a single "… (n more)" line. Chrome exports
// are never truncated.
const maxTreeChildren = 12

// Tree renders the span and its descendants as an indented text tree with
// durations and attributes — the EXPLAIN ANALYZE view.
func (s *Span) Tree() string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	s.tree(&b, "", "", "")
	return strings.TrimRight(b.String(), "\n")
}

func (s *Span) tree(b *strings.Builder, lead, branch, childLead string) {
	b.WriteString(lead + branch + s.label() + "\n")
	n := len(s.Children)
	shown := n
	if shown > maxTreeChildren {
		shown = maxTreeChildren
	}
	for i := 0; i < shown; i++ {
		last := i == n-1
		br, cl := "├─ ", "│  "
		if last {
			br, cl = "└─ ", "   "
		}
		s.Children[i].tree(b, lead+childLead, br, cl)
	}
	if shown < n {
		var rest sim.Duration
		for _, c := range s.Children[shown:] {
			rest += c.Duration()
		}
		fmt.Fprintf(b, "%s└─ … (%d more spans, %v)\n", lead+childLead, n-shown, rest)
	}
}

func (s *Span) label() string {
	d := "open"
	if s.ended {
		d = s.Duration().String()
	}
	label := fmt.Sprintf("%s %s", s.Name, d)
	if len(s.Attrs) > 0 {
		parts := make([]string, len(s.Attrs))
		for i, a := range s.Attrs {
			parts[i] = fmt.Sprintf("%s=%v", a.Key, a.Value)
		}
		label += " [" + strings.Join(parts, " ") + "]"
	}
	return label
}

// Walk visits the span and every descendant depth-first.
func (s *Span) Walk(fn func(*Span)) {
	if s == nil {
		return
	}
	fn(s)
	for _, c := range s.Children {
		c.Walk(fn)
	}
}
