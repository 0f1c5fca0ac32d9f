package opt

import (
	"testing"
)

// The planner benchmarks run on the plan stream's SSD world: a 12 288-page
// table behind a 1 024-frame pool, so index-scan candidates at more than a
// quarter of a percent of the rows overflow the pool — plan_serving's
// geometry. Constants drift with the iteration count; shapes repeat.

func (w *streamWorld) shape(name string) streamShape {
	for _, s := range w.shapes {
		if s.name == name {
			return s
		}
	}
	panic("no stream shape " + name)
}

// benchRange is the i-th predicate of a benchmark's stream: four serving
// selectivities, each clearly inside one plan regime, at a start that
// strides the key domain.
func benchRange(in Input, i int) Input {
	d := in.Table.KeyDomain()
	width := int64([4]float64{0.0005, 0.002, 0.008, 0.1}[i%4] * float64(d))
	in.Lo = int64(i) * 9973 % (d - width)
	in.Hi = in.Lo + width - 1
	return in
}

func BenchmarkEnumerate(b *testing.B) {
	w := newStreamWorld("ssd")
	plain, both := w.shape("qb8"), w.shape("prefetch")
	plain.cfg.QueueBudget = 0
	both.cfg.EnableSortedScan = true
	for _, s := range []struct {
		name  string
		shape streamShape
	}{{"default", plain}, {"prefetch+sorted", both}} {
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Enumerate(s.shape.cfg, benchRange(s.shape.in, i))
			}
		})
	}
}

func BenchmarkParamCacheHit(b *testing.B) {
	w := newStreamWorld("ssd")
	// plan_serving's cycle of option sets.
	shapes := []streamShape{w.shape("qb8"), w.shape("qb8"), w.shape("share4")}
	shapes[0].cfg.QueueBudget = 0
	for _, n := range []struct {
		name   string
		shapes []streamShape
	}{{"1shape", shapes[:1]}, {"3shapes", shapes}} {
		b.Run(n.name, func(b *testing.B) {
			pc := NewParamCache()
			for i := 0; i < 64; i++ {
				s := n.shapes[i%len(n.shapes)]
				pc.Choose(s.cfg, benchRange(s.in, i))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := n.shapes[i%len(n.shapes)]
				pc.Choose(s.cfg, benchRange(s.in, i))
			}
		})
	}
}
