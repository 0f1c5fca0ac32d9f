package obs

import (
	"bytes"
	"strings"
	"testing"

	"pioqo/internal/sim"
)

func TestCatalogComplete(t *testing.T) {
	seen := make(map[string]bool)
	for id, name := range metricNames[1:] {
		if name == "" || seen[name] {
			t.Errorf("metric %d: empty or duplicate name %q", id+1, name)
		}
		seen[name] = true
	}
	seenEv := make(map[string]bool)
	for id, d := range events[1:] {
		if d.name == "" || seenEv[d.name] {
			t.Errorf("event %d: empty or duplicate name %q", id+1, d.name)
		}
		seenEv[d.name] = true
		if d.b != "" && d.a == "" {
			t.Errorf("event %q names operand B but not A", d.name)
		}
		for _, f := range d.feeds {
			if f.m.id == 0 {
				t.Errorf("event %q feeds the zero Metric", d.name)
			}
			if (f.by == byA && d.a == "") || (f.by == byB && d.b == "") {
				t.Errorf("event %q feeds %s with an unnamed operand", d.name, f.m.Name())
			}
		}
	}
}

func TestRingBounds(t *testing.T) {
	env := sim.NewEnv(1)
	r := NewRegistry(env)
	r.EnableEvents(4)
	for i := int64(0); i < 10; i++ {
		r.Emit(EvWorkerStart, i, i, 0)
	}
	l := r.Log()
	if l.Total() != 10 {
		t.Fatalf("Total = %d, want 10", l.Total())
	}
	evs := l.Events()
	if len(evs) != 4 {
		t.Fatalf("Len = %d, want 4", len(evs))
	}
	for i, e := range evs {
		if want := uint64(6 + i); e.Seq != want {
			t.Errorf("event %d: Seq = %d, want %d (oldest-first)", i, e.Seq, want)
		}
	}
}

func TestNilLogIsInert(t *testing.T) {
	var r *Registry
	r.Emit(EvReadRetry, 1, 2, 3) // must not panic
	r.Counter(MetricExecScans).Inc()
	r.Gauge(MetricBrokerCreditsInUse).Set(1)
	r.Histogram(MetricDeviceLatencyUs, []float64{1}).Observe(1)
	l := r.Log()
	if l.Total() != 0 || l.Len() != 0 || l.Events() != nil {
		t.Fatal("nil log should report empty everything")
	}
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil WriteJSONL: err=%v len=%d", err, buf.Len())
	}
}

func TestEmitFeedsCountersWithTheRingOff(t *testing.T) {
	r := NewRegistry(sim.NewEnv(1))
	r.Emit(EvShardScatter, 0, 8, 3)
	r.Emit(EvReadRetry, 0, 100, 1)
	r.Emit(EvPlanRevalidate, NoQuery, 3, 0) // a dropped entry adds nothing
	c := r.Snapshot().Counters
	if c["shard.scatters"] != 1 || c["shard.partials"] != 8 || c["shard.pruned"] != 3 || c["exec.read_faults"] != 1 {
		t.Errorf("counters = %v, want scatters 1, partials 8, pruned 3, read_faults 1", c)
	}
	if _, ok := c["opt.band_revalidations"]; ok {
		t.Errorf("a zero feed registered opt.band_revalidations")
	}
	if r.Log() != nil {
		t.Errorf("ring on without EnableEvents")
	}
}

func TestJSONLDeterministicAndTyped(t *testing.T) {
	export := func() string {
		env := sim.NewEnv(7)
		r := NewRegistry(env)
		r.EnableEvents(16)
		r.Emit(EvAdmissionGrant, 0, 4, 0)
		env.Schedule(5*sim.Microsecond, func() {
			r.Emit(EvReadRetry, 1, 42, 0)
			r.Emit(EvFaultError, NoQuery, 8192, 0)
		})
		env.Run()
		var buf bytes.Buffer
		if err := r.Log().WriteJSONL(&buf); err != nil {
			t.Fatalf("WriteJSONL: %v", err)
		}
		return buf.String()
	}
	a, b := export(), export()
	if a != b {
		t.Fatalf("same-seed exports differ:\n%s\nvs\n%s", a, b)
	}
	lines := strings.Split(strings.TrimSuffix(a, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), a)
	}
	want := []string{
		`{"seq":0,"at_ns":0,"event":"admission.grant","query":0,"granted":4,"wait_ns":0}`,
		`{"seq":1,"at_ns":5000,"event":"read.retry","query":1,"page":42,"attempt":0}`,
		`{"seq":2,"at_ns":5000,"event":"fault.error","offset":8192}`,
	}
	for i, w := range want {
		if lines[i] != w {
			t.Errorf("line %d:\n got %s\nwant %s", i, lines[i], w)
		}
	}
}

// TestEmitAllocatesNothing is the zero-overhead gate: with the ring off,
// Emit bumps the row's counters and nothing else; with it on, it also writes
// into the preallocated ring, here small enough that the runs wrap it.
// Neither allocates. Tier 1 runs it.
func TestEmitAllocatesNothing(t *testing.T) {
	for _, ring := range []bool{false, true} {
		r := NewRegistry(sim.NewEnv(1))
		if ring {
			r.EnableEvents(64)
		}
		r.Emit(EvReadRetry, 0, 1, 2) // registers exec.read_faults
		i := int64(0)
		if allocs := testing.AllocsPerRun(1000, func() {
			i++
			r.Emit(EvReadRetry, i, 1, 2)
		}); allocs != 0 {
			t.Errorf("ring on = %v: Emit allocates %.1f times a call, want 0", ring, allocs)
		}
	}
}
