package opt

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"pioqo/internal/btree"
	"pioqo/internal/buffer"
	"pioqo/internal/disk"
	"pioqo/internal/exec"
	"pioqo/internal/golden"
	"pioqo/internal/obs"
	"pioqo/internal/sim"
	"pioqo/internal/stats"
	"pioqo/internal/table"
)

// The plan-stream golden pins the planner's arithmetic to the bit: one row
// per lookup of a seeded stream — every plan shape the optimizer prices,
// through every entry point — with the chosen plan and the IEEE-754 bits of
// each cost component, closing with the caches' counters. The figure goldens
// round costs to microseconds and plan a few hundred points; this stream
// plans twenty thousand and rounds nothing, so a change to the page-count
// estimate's operation order, to the candidate order of an enumeration or to
// what a cache counts moves a digest.
//
// The rows themselves (28 498 of them, 3.2 MB) are not checked in.
// testdata/planstream.golden is a digest golden (internal/golden): per
// section — one per device × shape, and one per device for the closing
// counters — the row count, the SHA-256 of the section's rows in stream
// order, and the section's winners: how often each plan was chosen in each
// decade of selectivity. A flipped cost bit moves a digest; a re-baseline is
// a diff of the winners, which a reviewer can read. -golden-rows <dir> keeps
// the full rows in <dir>/planstream.rows; -update -v logs the winners that
// moved. -update is only for a change that is meant to move a cost; say so
// in the commit.

const (
	streamLookups = 10240 // per device
	streamPages   = 12288 // heap pages: 12× the pool, so Yao's curve crosses it
	streamPool    = 1024
)

// streamShape is one plan shape of the stream: a config and an input whose
// constants each lookup fills in.
type streamShape struct {
	name string
	cfg  Config
	in   Input
}

// streamWorld is one device's side of the stream.
type streamWorld struct {
	env    *sim.Env
	tab    table.Table
	warm   *buffer.Pool // the pool whose residency moves while the stream runs
	shapes []streamShape
	reg    *obs.Registry
}

func newStreamWorld(devKind string) *streamWorld {
	env, dev, model := calibratedDevice(devKind, 29)
	m := disk.NewManager(dev)
	tab := table.NewSynthetic(m, "t", streamPages*33, 33, 5)
	w := &streamWorld{
		env:  env,
		tab:  tab,
		warm: buffer.NewPool(env, streamPool),
		reg:  obs.NewRegistry(env),
	}
	w.reg.EnableEvents(0)
	in := Input{Table: tab, Index: btree.NewSynthetic(m, tab, 0, 0), Pool: buffer.NewPool(env, streamPool)}
	cfg := Config{
		Model:     model,
		Costs:     exec.DefaultCPUCosts(),
		Cores:     8,
		Degrees:   []int{1, 2, 4, 8, 16, 32},
		PoolPages: streamPool,
		Obs:       w.reg,
	}
	add := func(name string, edit func(*Config, *Input)) {
		c, i := cfg, in
		edit(&c, &i)
		if name != "default" {
			// The default shape leaves the key to be flattened per lookup.
			c.GridKey = GridKey(c.Degrees, c.PrefetchDepths)
		}
		w.shapes = append(w.shapes, streamShape{name, c, i})
	}
	prefetch := []int{2, 4, 8, 16, 32}
	add("default", func(c *Config, _ *Input) { c.Degrees = nil })
	add("qb1", func(c *Config, _ *Input) { c.QueueBudget = 1 })
	add("qb3", func(c *Config, _ *Input) { c.QueueBudget = 3 })
	add("qb8", func(c *Config, _ *Input) { c.QueueBudget = 8 })
	add("share2", func(c *Config, _ *Input) { c.ShareParties = 2 })
	add("share4", func(c *Config, _ *Input) { c.ShareParties = 4 })
	add("maxdeg8", func(c *Config, _ *Input) { c.Degrees = []int{1, 2, 4, 8} })
	add("prefetch", func(c *Config, _ *Input) { c.PrefetchDepths = prefetch })
	add("maxdeg4", func(c *Config, _ *Input) { c.Degrees = []int{1, 2, 4} })
	add("dtt", func(c *Config, _ *Input) { c.Model = model.DepthOne() })
	add("hist", func(_ *Config, i *Input) { i.Stats = stats.BuildHistogram(tab, 64) })
	add("warm", func(_ *Config, i *Input) { i.Pool = w.warm })
	add("all", func(c *Config, i *Input) {
		c.PrefetchDepths, c.ShareParties, c.QueueBudget = prefetch, 2, 24
		i.Pool = w.warm
	})
	add("nopool", func(_ *Config, i *Input) { i.Pool = nil })
	add("noindex", func(_ *Config, i *Input) { i.Index = nil })
	return w
}

func (w *streamWorld) shape(name string) streamShape {
	for _, s := range w.shapes {
		if s.name == name {
			return s
		}
	}
	panic("no stream shape " + name)
}

// servingRange is the i-th predicate of a serving stream: four
// selectivities, each clearly inside one plan regime, at a start that
// strides the key domain.
func servingRange(in Input, i int) Input {
	d := in.Table.KeyDomain()
	width := int64([4]float64{0.0005, 0.002, 0.008, 0.1}[i%4] * float64(d))
	in.Lo = int64(i) * 9973 % (d - width)
	in.Hi = in.Lo + width - 1
	return in
}

// drawRange draws the stream's next predicate: log-uniform selectivities
// over five decades, with the degenerate ranges (empty, one key, the whole
// domain, past its end) mixed in.
func (w *streamWorld) drawRange(rng *rand.Rand) (lo, hi int64) {
	d := w.tab.KeyDomain()
	switch rng.Intn(50) {
	case 0:
		return 10, 9
	case 1:
		lo = rng.Int63n(d)
		return lo, lo
	case 2:
		return 0, d - 1
	case 3:
		return d / 2, 2 * d
	}
	sel := math.Exp(math.Log(1e-5) + rng.Float64()*(math.Log(1)-math.Log(1e-5)))
	width := int64(sel * float64(d))
	if width < 1 {
		width = 1
	}
	lo = rng.Int63n(d - width + 1)
	return lo, lo + width - 1
}

func planBits(p Plan) string {
	return fmt.Sprintf("%v/%d/%d/%t %016x %016x %016x %016x %016x",
		p.Method, p.Degree, p.Prefetch, p.Shared,
		math.Float64bits(p.TotalMicros), math.Float64bits(p.IOMicros), math.Float64bits(p.CPUMicros),
		math.Float64bits(p.EstPageIO), math.Float64bits(p.EstRows))
}

func planLabel(p Plan) string {
	label := fmt.Sprintf("%v/%d", p.Method, p.Degree)
	if p.Prefetch > 0 {
		label += fmt.Sprintf("+pf%d", p.Prefetch)
	}
	if p.Shared {
		label += "+shared"
	}
	return label
}

// decadeOf names the decade of selectivity [lo, hi] falls in.
func decadeOf(tab table.Table, lo, hi int64) string {
	hi = min(hi, tab.KeyDomain()-1)
	if hi < lo {
		return "empty"
	}
	sel := float64(hi-lo+1) / float64(tab.KeyDomain())
	return fmt.Sprintf("1e%d", int(math.Floor(math.Log10(sel))))
}

// planStream runs the stream and renders it. It uses nothing but the
// package's exported entry points, so the same file generates the rows at
// any commit.
func planStream() *golden.Digest {
	st := golden.NewDigest("# Plan-stream digests; see planstream_test.go. Per section: rows, the SHA-256 of\n" +
		"# its rows in stream order, and per decade of selectivity how often each plan won.\n")
	// add appends one row (possibly of several lines) to its section and
	// tallies the plans it chose under the row's selectivity decade.
	add := func(section, row, decade string, chosen ...Plan) {
		st.Add(section, row)
		for _, p := range chosen {
			st.Tally(section, decade, planLabel(p))
		}
	}
	for _, devKind := range []string{"ssd", "hdd"} {
		w := newStreamWorld(devKind)
		rng := rand.New(rand.NewSource(20141))
		memo, pc := NewMemo(), NewParamCache()
		// A fifth of the lookups replay constants the stream has used
		// before: the exact-key memo hits on nothing else.
		var seen [][2]int64
		warmed := int64(0)
		fmt.Fprintf(st, "# %s\n", devKind)
		for i := 0; i < streamLookups; i++ {
			if i%64 == 63 {
				// Residency drifts: eight more heap pages land in the warm
				// pool (evicting once it is full), moving its epoch.
				for j := 0; j < 8; j++ {
					w.warm.Prefetch(w.tab.File(), warmed%w.tab.Pages())
					warmed += 3
				}
				w.env.Run()
			}
			s := w.shapes[rng.Intn(len(w.shapes))]
			in := s.in
			if len(seen) > 0 && rng.Intn(5) == 0 {
				r := seen[rng.Intn(len(seen))]
				in.Lo, in.Hi = r[0], r[1]
			} else {
				in.Lo, in.Hi = w.drawRange(rng)
				seen = append(seen, [2]int64{in.Lo, in.Hi})
			}
			head := fmt.Sprintf("%s %d %d ", s.name, in.Lo, in.Hi)
			one := func(tag string, p Plan, tail string) {
				add(devKind+"/"+s.name, head+tag+" "+planBits(p)+tail+"\n", decadeOf(w.tab, in.Lo, in.Hi), p)
			}
			switch pick := rng.Intn(20); {
			case pick < 8:
				one("P", pc.Choose(s.cfg, in), "")
			case pick < 12:
				one("M", memo.Choose(s.cfg, in), "")
			case pick < 15:
				one("C", Choose(s.cfg, in), "")
			case pick < 18:
				p, fell := GreedyChoose(s.cfg, in)
				one("G", p, fmt.Sprintf(" %t", fell))
			default:
				row, shards := shardedBits(s, in, memo, pc)
				add(devKind+"/"+s.name, head+row, decadeOf(w.tab, in.Lo, in.Hi), shards...)
			}
		}
		var b strings.Builder
		hits, misses := memo.Stats()
		fmt.Fprintf(&b, "memo hits=%d misses=%d len=%d\n", hits, misses, memo.Len())
		fmt.Fprintf(&b, "paramcache %+v shapes=%d\n", pc.Stats(), pc.Len())
		counters := w.reg.Snapshot().Counters
		var names []string
		for name := range counters {
			if strings.HasPrefix(name, "opt.") {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(&b, "%s=%d\n", name, counters[name])
		}
		fmt.Fprintf(&b, "events=%d\n", w.reg.Log().Total())
		add(devKind+"/counters", b.String(), "")
	}
	return st
}

// shardedBits plans the lookup as a four-way scatter over quarters of its
// range, each shard under its own split of the queue budget, through one of
// the three per-shard choosers.
func shardedBits(s streamShape, in Input, memo *Memo, pc *ParamCache) (string, []Plan) {
	const shards = 4
	cfgs, ins := make([]Config, shards), make([]Input, shards)
	width := (in.Hi - in.Lo + 1) / shards
	for j := range cfgs {
		cfgs[j], ins[j] = s.cfg, in
		if s.cfg.QueueBudget == 0 {
			cfgs[j].QueueBudget = 4 << j
		}
		ins[j].Lo = in.Lo + int64(j)*width
		if j < shards-1 {
			ins[j].Hi = ins[j].Lo + width - 1
		}
	}
	choose, merge := Choose, MergeScalar
	switch (in.Lo + in.Hi) % 3 {
	case 1:
		choose, merge = memo.Choose, MergeOrdered
	case 2:
		choose, merge = pc.Choose, MergeGroups
	}
	sp := ChooseSharded(choose, cfgs, ins, merge, 16)
	var b strings.Builder
	fmt.Fprintf(&b, "S%d %016x %016x %016x %016x %016x\n", (in.Lo+in.Hi)%3,
		math.Float64bits(sp.TotalMicros), math.Float64bits(sp.IOMicros), math.Float64bits(sp.CPUMicros),
		math.Float64bits(sp.MergeMicros), math.Float64bits(sp.EstRows))
	for _, p := range sp.Shards {
		fmt.Fprintf(&b, "  %s\n", planBits(p))
	}
	return b.String(), sp.Shards
}

func TestPlanStreamGolden(t *testing.T) {
	golden.Twice(t, planStream).Check(t, filepath.Join("testdata", "planstream.golden"))
}
