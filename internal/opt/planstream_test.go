package opt

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
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
// testdata/planstream.golden holds, per section — one per device × shape,
// and one per device for the closing counters — the row count, the SHA-256 of
// the section's rows in stream order, and the section's winners: how often
// each plan was chosen in each decade of selectivity. A flipped cost bit
// moves a digest; a re-baseline is a diff of the winners, which a reviewer
// can read.
//
//   - -planstream-rows <dir> keeps the full rows in <dir>/planstream.rows:
//     written there if absent, and if present (say, written at the parent
//     commit) compared with this run's, the first diverging row printed old
//     beside new.
//   - -update rewrites the golden and logs (add -v) which
//     (section, decade) winners changed, from what to what. Only for a change
//     that is meant to move a cost; say so in the commit.
var (
	updatePlanStream = flag.Bool("update", false,
		"rewrite testdata/planstream.golden from the current implementation; with -v, log the winners that changed")
	planStreamRows = flag.String("planstream-rows", "",
		"directory for the stream's full rows: written if absent, compared row by row if present")
)

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

// streamSection is one device × shape's slice of the stream (or a device's
// closing counters): what the golden pins.
type streamSection struct {
	name    string
	rows    int
	sum     hash.Hash
	winners map[string]map[string]int // selectivity decade → plan → times chosen
}

// stream is a rendered plan stream: the full rows in stream order, and the
// same rows dealt into their sections.
type stream struct {
	rows     strings.Builder
	sections []*streamSection
	byName   map[string]*streamSection
}

func (st *stream) section(name string) *streamSection {
	sec := st.byName[name]
	if sec == nil {
		sec = &streamSection{name: name, sum: sha256.New(), winners: map[string]map[string]int{}}
		st.sections = append(st.sections, sec)
		st.byName[name] = sec
	}
	return sec
}

// add appends one row (possibly of several lines) to the stream and to its
// section, crediting the plans it chose to the row's selectivity decade.
func (st *stream) add(section, row, decade string, chosen ...Plan) {
	st.rows.WriteString(row)
	sec := st.section(section)
	sec.rows++
	sec.sum.Write([]byte(row))
	for _, p := range chosen {
		if sec.winners[decade] == nil {
			sec.winners[decade] = map[string]int{}
		}
		sec.winners[decade][planLabel(p)]++
	}
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
func planStream() *stream {
	st := &stream{byName: map[string]*streamSection{}}
	for _, devKind := range []string{"ssd", "hdd"} {
		w := newStreamWorld(devKind)
		rng := rand.New(rand.NewSource(20141))
		memo, pc := NewMemo(), NewParamCache()
		// A fifth of the lookups replay constants the stream has used
		// before: the exact-key memo hits on nothing else.
		var seen [][2]int64
		warmed := int64(0)
		fmt.Fprintf(&st.rows, "# %s\n", devKind)
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
				st.add(devKind+"/"+s.name, head+tag+" "+planBits(p)+tail+"\n", decadeOf(w.tab, in.Lo, in.Hi), p)
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
				st.add(devKind+"/"+s.name, head+row, decadeOf(w.tab, in.Lo, in.Hi), shards...)
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
		st.add(devKind+"/counters", b.String(), "")
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

// golden renders the sections as testdata/planstream.golden holds them.
func (st *stream) golden() string {
	var b strings.Builder
	b.WriteString("# Plan-stream digests; see planstream_test.go. Per section: rows, the SHA-256 of\n" +
		"# its rows in stream order, and per decade of selectivity how often each plan won.\n")
	for _, sec := range st.sections {
		fmt.Fprintf(&b, "section %s rows=%d sha256=%x\n", sec.name, sec.rows, sec.sum.Sum(nil))
		for _, decade := range sortedKeys(sec.winners) {
			fmt.Fprintf(&b, "  %s:", decade)
			for _, plan := range sortedKeys(sec.winners[decade]) {
				fmt.Fprintf(&b, " %s×%d", plan, sec.winners[decade][plan])
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// goldenSections splits a rendered golden into its sections' lines, keyed by
// the section line's name, and lists the names in file order.
func goldenSections(golden string) (names []string, lines map[string][]string) {
	lines = map[string][]string{}
	name := ""
	for _, line := range strings.Split(strings.TrimRight(golden, "\n"), "\n") {
		if f := strings.Fields(line); len(f) > 1 && f[0] == "section" {
			name = f[1]
			names = append(names, name)
		}
		if name != "" {
			lines[name] = append(lines[name], line)
		}
	}
	return names, lines
}

// goldenDiff lists, old beside new, the lines of every section that differ
// between two rendered goldens: the digest line when any row moved, and the
// decades whose winners changed.
func goldenDiff(old, new string) []string {
	oldNames, oldLines := goldenSections(old)
	newNames, newLines := goldenSections(new)
	var out []string
	for _, name := range newNames {
		o, n := oldLines[name], newLines[name]
		if o == nil {
			out = append(out, "new section "+name)
			continue
		}
		byDecade := func(lines []string) map[string]string {
			m := map[string]string{}
			for _, l := range lines[1:] {
				decade, winners, _ := strings.Cut(strings.TrimSpace(l), ":")
				m[decade] = strings.TrimSpace(winners)
			}
			return m
		}
		od, nd := byDecade(o), byDecade(n)
		if o[0] != n[0] {
			out = append(out, fmt.Sprintf("%s: rows moved", name))
		}
		decades := map[string]bool{}
		for d := range od {
			decades[d] = true
		}
		for d := range nd {
			decades[d] = true
		}
		for _, d := range sortedKeys(decades) {
			if od[d] != nd[d] {
				out = append(out, fmt.Sprintf("%s sel %s winners: %s  ->  %s", name, d, od[d], nd[d]))
			}
		}
	}
	for _, name := range oldNames {
		if newLines[name] == nil {
			out = append(out, "section gone: "+name)
		}
	}
	return out
}

// compareRows keeps the stream's full rows in dir: written there when the
// file is absent, compared with it when present — the first diverging row,
// old beside new.
func compareRows(t *testing.T, dir, rows string) {
	path := filepath.Join(dir, "planstream.rows")
	old, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(rows), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote the stream's %d row lines to %s", strings.Count(rows, "\n"), path)
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if string(old) == rows {
		t.Logf("rows identical to %s", path)
		return
	}
	nl, ol := strings.Split(rows, "\n"), strings.Split(string(old), "\n")
	for i := range nl {
		if i >= len(ol) || nl[i] != ol[i] {
			o := "<end of file>"
			if i < len(ol) {
				o = ol[i]
			}
			t.Errorf("rows diverge from %s at line %d:\n old %s\n new %s", path, i+1, o, nl[i])
			return
		}
	}
	t.Errorf("rows are a %d-line prefix of the %d lines in %s", len(nl), len(ol), path)
}

func TestPlanStreamGolden(t *testing.T) {
	st := planStream()
	got := st.golden()
	if *planStreamRows != "" {
		compareRows(t, *planStreamRows, st.rows.String())
	}
	path := filepath.Join("testdata", "planstream.golden")
	want, err := os.ReadFile(path)
	if *updatePlanStream {
		for _, line := range goldenDiff(string(want), got) {
			t.Log(line)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if err != nil {
		t.Fatalf("reading %s (run with -update to create): %v", path, err)
	}
	if got == string(want) {
		return
	}
	diff := goldenDiff(string(want), got)
	const show = 24
	if len(diff) > show {
		diff = append(diff[:show], fmt.Sprintf("... and %d more", len(diff)-show))
	}
	t.Fatalf("plan stream moved against %s (old  ->  new):\n  %s\n"+
		"For the first diverging row, old beside new: run this test with -planstream-rows <dir> "+
		"at the reference commit, then here.", path, strings.Join(diff, "\n  "))
}
