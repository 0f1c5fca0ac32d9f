package opt

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"pioqo/internal/btree"
	"pioqo/internal/buffer"
	"pioqo/internal/disk"
	"pioqo/internal/exec"
	"pioqo/internal/obs"
	"pioqo/internal/obs/event"
	"pioqo/internal/sim"
	"pioqo/internal/stats"
	"pioqo/internal/table"
)

// The plan-stream golden pins the planner's arithmetic to the bit: one line
// per lookup of a seeded stream — every plan shape the optimizer prices,
// through every entry point — with the chosen plan and the IEEE-754 bits of
// each cost component, closing with the caches' counters. The figure goldens
// round costs to microseconds and plan a few hundred points; this file plans
// twenty thousand and rounds nothing, so a change to the page-count
// estimate's operation order, to the candidate order of an enumeration or to
// what a cache counts shows as a diff.
//
// testdata/planstream.golden was generated from the planner as it stood
// before page counts were constant-folded and costed once per enumeration.
// Regenerate with -update-planstream only for a change that is meant to move
// a cost, and say so in the commit.
var updatePlanStream = flag.Bool("update-planstream", false,
	"rewrite testdata/planstream.golden from the current implementation")

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
	log    *event.Log
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
		log:  event.NewLog(env, 0),
	}
	in := Input{Table: tab, Index: btree.NewSynthetic(m, tab, 0, 0), Pool: buffer.NewPool(env, streamPool)}
	cfg := Config{
		Model:     model,
		Costs:     exec.DefaultCPUCosts(),
		Cores:     8,
		Degrees:   []int{1, 2, 4, 8, 16, 32},
		PoolPages: streamPool,
		Obs:       w.reg,
		Log:       w.log,
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
	add("sorted", func(c *Config, _ *Input) { c.EnableSortedScan = true })
	add("prefetch", func(c *Config, _ *Input) { c.PrefetchDepths = prefetch })
	add("maxdeg4", func(c *Config, _ *Input) { c.Degrees = []int{1, 2, 4} })
	add("dtt", func(c *Config, _ *Input) { c.Model = model.DepthOne() })
	add("hist", func(_ *Config, i *Input) { i.Stats = stats.BuildHistogram(tab, 64) })
	add("warm", func(_ *Config, i *Input) { i.Pool = w.warm })
	add("all", func(c *Config, i *Input) {
		c.EnableSortedScan, c.PrefetchDepths, c.ShareParties, c.QueueBudget = true, prefetch, 2, 24
		i.Pool = w.warm
	})
	add("nopool", func(_ *Config, i *Input) { i.Pool = nil })
	add("noindex", func(_ *Config, i *Input) { i.Index = nil })
	return w
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

// planStream runs the stream and renders it. It uses nothing but the
// package's exported entry points, so the same file generates the golden at
// any commit.
func planStream() string {
	var b strings.Builder
	for _, devKind := range []string{"ssd", "hdd"} {
		w := newStreamWorld(devKind)
		rng := rand.New(rand.NewSource(20141))
		memo, pc := NewMemo(), NewParamCache()
		// A fifth of the lookups replay constants the stream has used
		// before: the exact-key memo hits on nothing else.
		var seen [][2]int64
		warmed := int64(0)
		fmt.Fprintf(&b, "# %s\n", devKind)
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
			fmt.Fprintf(&b, "%s %d %d ", s.name, in.Lo, in.Hi)
			switch pick := rng.Intn(20); {
			case pick < 8:
				fmt.Fprintf(&b, "P %s\n", planBits(pc.Choose(s.cfg, in)))
			case pick < 12:
				fmt.Fprintf(&b, "M %s\n", planBits(memo.Choose(s.cfg, in)))
			case pick < 15:
				fmt.Fprintf(&b, "C %s\n", planBits(Choose(s.cfg, in)))
			case pick < 18:
				p, fell := GreedyChoose(s.cfg, in)
				fmt.Fprintf(&b, "G %s %t\n", planBits(p), fell)
			default:
				b.WriteString(shardedBits(s, in, memo, pc))
			}
		}
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
		fmt.Fprintf(&b, "events=%d\n", w.log.Total())
	}
	return b.String()
}

// shardedBits plans the lookup as a four-way scatter over quarters of its
// range, each shard under its own split of the queue budget, through one of
// the three per-shard choosers.
func shardedBits(s streamShape, in Input, memo *Memo, pc *ParamCache) string {
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
	return b.String()
}

func TestPlanStreamGolden(t *testing.T) {
	got := planStream()
	path := filepath.Join("testdata", "planstream.golden")
	if *updatePlanStream {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s (run with -update-planstream to create): %v", path, err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range gl {
		if i >= len(wl) || gl[i] != wl[i] {
			w := "<end of file>"
			if i < len(wl) {
				w = wl[i]
			}
			t.Fatalf("plan stream diverges from %s at line %d:\n got  %s\n want %s", path, i+1, gl[i], w)
		}
	}
	t.Fatalf("plan stream is a %d-line prefix of the %d-line golden", len(gl), len(wl))
}
