package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"pioqo/internal/sim"
)

func TestSpanTreeStructureAndTiming(t *testing.T) {
	env := sim.NewEnv(1)
	tr := NewTracer(env, "test")
	var query *Span
	env.Go("driver", func(p *sim.Proc) {
		query = tr.Start(nil, "query", KV("table", "T"))
		op := tr.Start(query, "PIS8", KV("degree", 8))
		for w := 0; w < 2; w++ {
			ws := tr.StartTrack(op, "worker")
			p.Sleep(2 * sim.Millisecond)
			ws.SetAttr("pages", 10)
			ws.End()
		}
		op.End()
		query.End()
	})
	env.Run()

	if query.Duration() != 4*sim.Millisecond {
		t.Errorf("query duration = %v, want 4ms", query.Duration())
	}
	op := query.Children[0]
	if len(op.Children) != 2 {
		t.Fatalf("operator has %d children, want 2", len(op.Children))
	}
	if op.Children[0].tid == op.Children[1].tid {
		t.Errorf("worker spans share track %d; StartTrack should separate them", op.Children[0].tid)
	}
	if v, ok := op.Children[0].Attr("pages"); !ok || v != "10" {
		t.Errorf("worker pages attr = %q, %v", v, ok)
	}

	tree := query.Tree()
	for _, want := range []string{"query", "PIS8", "worker", "degree=8", "pages=10", "└─"} {
		if !strings.Contains(tree, want) {
			t.Errorf("tree missing %q:\n%s", want, tree)
		}
	}
}

func TestNilTracerAndSpanAreInert(t *testing.T) {
	var tr *Tracer
	s := tr.Start(nil, "query")
	if s != nil {
		t.Fatal("nil tracer returned a span")
	}
	// All of these must be no-ops, not panics.
	s.SetAttr("k", 1)
	s.End()
	if s.Duration() != 0 || s.Tree() != "" {
		t.Error("nil span is not inert")
	}
	if _, ok := s.Attr("k"); ok {
		t.Error("nil span has attributes")
	}
	child := tr.StartTrack(s, "w")
	if child != nil {
		t.Error("nil tracer created a track span")
	}
}

func TestTreeCollapsesManyChildren(t *testing.T) {
	env := sim.NewEnv(1)
	tr := NewTracer(env, "test")
	root := tr.Start(nil, "op")
	for i := 0; i < maxTreeChildren+5; i++ {
		tr.Start(root, "leaf").End()
	}
	root.End()
	tree := root.Tree()
	if !strings.Contains(tree, "(5 more spans") {
		t.Errorf("tree does not collapse the tail:\n%s", tree)
	}
	if got := strings.Count(tree, "leaf"); got != maxTreeChildren {
		t.Errorf("tree shows %d leaves, want %d", got, maxTreeChildren)
	}
}

func TestChromeExport(t *testing.T) {
	trace := NewTrace()
	env := sim.NewEnv(1)
	tr := trace.NewTracer(env, "E1-HDD")
	env.Go("driver", func(p *sim.Proc) {
		q := tr.Start(nil, "query")
		w := tr.StartTrack(q, "pis-w0", KV("pages", 3))
		p.Sleep(sim.Millisecond)
		w.End()
		q.End()
	})
	env.Run()

	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string                 `json:"name"`
			Ph   string                 `json:"ph"`
			Ts   float64                `json:"ts"`
			Dur  float64                `json:"dur"`
			Pid  int                    `json:"pid"`
			Tid  int                    `json:"tid"`
			Args map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if file.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", file.DisplayTimeUnit)
	}
	var complete, meta int
	for _, ev := range file.TraceEvents {
		switch ev.Ph {
		case "X":
			complete++
			if ev.Name == "pis-w0" {
				if ev.Dur != 1000 {
					t.Errorf("worker dur = %g us, want 1000", ev.Dur)
				}
				if ev.Args["pages"] != float64(3) {
					t.Errorf("worker args = %v", ev.Args)
				}
				if ev.Tid == 0 {
					t.Error("worker on tid 0; StartTrack should allocate a lane")
				}
			}
		case "M":
			meta++
		}
	}
	if complete != 2 {
		t.Errorf("complete events = %d, want 2", complete)
	}
	if meta < 2 { // process_name + at least one thread_name
		t.Errorf("metadata events = %d", meta)
	}
}

func TestTraceMultipleTracersGetDistinctPids(t *testing.T) {
	trace := NewTrace()
	a := trace.NewTracer(sim.NewEnv(1), "sys-a")
	b := trace.NewTracer(sim.NewEnv(2), "sys-b")
	if a.pid == b.pid {
		t.Errorf("tracers share pid %d", a.pid)
	}
	a.Start(nil, "x").End()
	b.Start(nil, "y").End()
	if len(trace.Spans()) != 2 {
		t.Errorf("trace has %d roots, want 2", len(trace.Spans()))
	}
}
