// Package golden is the one harness the golden tests share, imported only by
// _test.go files: the -update and -golden-rows flags, exact text comparison
// that reports the first diverging line old beside new, and digest goldens
// for streams too large to check in. A digest golden holds per section the
// row count and SHA-256 of its rows, optional tallies (say, how often each
// plan won per decade of selectivity) and verbatim notes; a failure names
// the sections that moved. Twice runs a producer twice in one process and
// compares the bytes. -golden-rows <dir> writes the full rows to
// <dir>/<name>.rows when absent and compares them with it when present, so
// rows written at a reference commit show the first diverging row here.
package golden

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var (
	update = flag.Bool("update", false,
		"rewrite the golden files from the current implementation; with -v, a digest golden logs the sections that moved")
	rowsDir = flag.String("golden-rows", "",
		"directory for a digest golden's full rows: <dir>/<name>.rows is written if absent, compared line by line if present")
)

// Check compares got with the golden file at path byte for byte and reports
// the first diverging line; with -update it rewrites the file instead.
func Check(t testing.TB, path, got string) {
	t.Helper()
	if Update(t, path, got) {
		return
	}
	if d := FirstDiff(Read(t, path), got); d != "" {
		t.Fatalf("%s diverges at %s", path, d)
	}
}

// Twice runs produce twice in one process and fails unless both runs print
// the same bytes (a Digest prints its digests, a string itself), so a run
// leaves nothing behind that the next one can see. It returns the second.
func Twice[T any](t testing.TB, produce func() T) T {
	t.Helper()
	first, second := produce(), produce()
	if d := FirstDiff(fmt.Sprint(first), fmt.Sprint(second)); d != "" {
		t.Fatalf("a second run in the same process diverges at %s", d)
	}
	return second
}

// Update writes got to path when -update is set and reports whether it did,
// for a test that compares against Read with its own comparator.
func Update(t testing.TB, path, got string) bool {
	t.Helper()
	if !*update {
		return false
	}
	write(t, path, got)
	return true
}

// Read returns the golden file at path.
func Read(t testing.TB, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden %s (run with -update to create it): %v", path, err)
	}
	return string(b)
}

func write(t testing.TB, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", path)
}

// FirstDiff returns "" when old and new are equal, and otherwise the number
// of the first line where they part, old beside new; the shorter side of a
// prefix reads <end of file>.
func FirstDiff(old, new string) string {
	if old == new {
		return ""
	}
	o, n := strings.Split(strings.TrimSuffix(old, "\n"), "\n"), strings.Split(strings.TrimSuffix(new, "\n"), "\n")
	i := 0
	for i < len(o) && i < len(n) && o[i] == n[i] {
		i++
	}
	at := func(ls []string) string {
		if i < len(ls) {
			return ls[i]
		}
		return "<end of file>"
	}
	return fmt.Sprintf("line %d:\n old %s\n new %s", i+1, at(o), at(n))
}

// A Digest renders a stream into a digest golden as the stream is written:
// each row goes to the full rows and to its section's digest.
type Digest struct {
	header   string
	rows     strings.Builder
	items    []*section // sections and notes, in order of first appearance
	sections map[string]*section
}

type section struct {
	name  string
	rows  int
	sum   hash.Hash
	tally map[string]map[string]int // key → label → count
	note  string                    // set for a verbatim line instead of a section
}

// NewDigest starts a digest golden whose file begins with header, a block
// of comment lines naming the test that writes it.
func NewDigest(header string) *Digest {
	return &Digest{header: header, sections: map[string]*section{}}
}

// Write adds p to the full rows only: a heading that frames the stream but
// belongs to no section.
func (d *Digest) Write(p []byte) (int, error) { return d.rows.Write(p) }

// Add appends row, which may span several lines, to the rows and to the
// named section's digest, opening the section on its first row.
func (d *Digest) Add(name, row string) {
	s := d.section(name)
	s.rows++
	s.sum.Write([]byte(row))
	d.rows.WriteString(row)
}

// Note writes line to the rows and, verbatim, to the golden.
func (d *Digest) Note(line string) {
	d.items = append(d.items, &section{note: line})
	d.rows.WriteString(line + "\n")
}

// Tally counts label once under key in the named section. The golden shows
// a section's tallies under its digest, one line per key: "key: a×2 b×1".
func (d *Digest) Tally(name, key, label string) {
	s := d.section(name)
	if s.tally[key] == nil {
		s.tally[key] = map[string]int{}
	}
	s.tally[key][label]++
}

func (d *Digest) section(name string) *section {
	s := d.sections[name]
	if s == nil {
		s = &section{name: name, sum: sha256.New(), tally: map[string]map[string]int{}}
		d.items = append(d.items, s)
		d.sections[name] = s
	}
	return s
}

// String renders the golden.
func (d *Digest) String() string {
	var b strings.Builder
	b.WriteString(d.header)
	for _, s := range d.items {
		if s.sum == nil {
			fmt.Fprintln(&b, s.note)
			continue
		}
		fmt.Fprintf(&b, "section %s rows=%d sha256=%x\n", s.name, s.rows, s.sum.Sum(nil))
		for _, key := range sortedKeys(s.tally) {
			fmt.Fprintf(&b, "  %s:", key)
			for _, label := range sortedKeys(s.tally[key]) {
				fmt.Fprintf(&b, " %s×%d", label, s.tally[key][label])
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
	slices.Sort(keys)
	return keys
}

// Check compares the digest with the golden at path and names every section
// that moved; with -update it rewrites the file, logging those sections, and
// with -golden-rows it writes or compares the full rows first.
func (d *Digest) Check(t testing.TB, path string) {
	t.Helper()
	if *rowsDir != "" {
		rows := filepath.Join(*rowsDir, strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))+".rows")
		if old, err := os.ReadFile(rows); os.IsNotExist(err) {
			write(t, rows, d.rows.String())
		} else if err != nil {
			t.Fatal(err)
		} else if diff := FirstDiff(string(old), d.rows.String()); diff != "" {
			t.Errorf("rows diverge from %s at %s", rows, diff)
		}
	}
	got := d.String()
	if *update {
		old, _ := os.ReadFile(path) // a missing golden is new in every section
		for _, l := range sectionDiff(string(old), got) {
			t.Log(l)
		}
		write(t, path, got)
		return
	}
	want := Read(t, path)
	if want == got {
		return
	}
	diff := sectionDiff(want, got)
	const show = 24
	if len(diff) > show {
		diff = append(diff[:show], fmt.Sprintf("... and %d more", len(diff)-show))
	}
	t.Fatalf("%s moved (- old, + new):\n  %s\nFor the first diverging row, old beside new: run this test with "+
		"-golden-rows <dir> at the reference commit, then here.", path, strings.Join(diff, "\n  "))
}

// sectionDiff lists what moved between two rendered digest goldens, section
// by section: "NAME: rows moved" when its digest changed, then each line
// under it that only old (-) or only new (+) has. A Note counts as a line of
// the section above it.
func sectionDiff(old, new string) []string {
	oldNames, o := split(old)
	newNames, n := split(new)
	var out []string
	for _, name := range newNames {
		if o[name] == nil {
			out = append(out, "new section "+name)
			continue
		}
		if o[name][0] != n[name][0] {
			out = append(out, name+": rows moved")
		}
		out = append(out, without(name+": - ", o[name][1:], n[name][1:])...)
		out = append(out, without(name+": + ", n[name][1:], o[name][1:])...)
	}
	for _, name := range oldNames {
		if n[name] == nil {
			out = append(out, "section gone: "+name)
		}
	}
	return out
}

// split groups a rendered golden's lines by section, the section's digest
// line first, and lists the names in file order; the header is left out.
func split(golden string) (names []string, groups map[string][]string) {
	groups = map[string][]string{}
	name := ""
	for _, l := range strings.Split(strings.TrimRight(golden, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(l, "section "); ok {
			name, _, _ = strings.Cut(rest, " rows=")
			names = append(names, name)
		}
		if name != "" {
			groups[name] = append(groups[name], l)
		}
	}
	return names, groups
}

// without returns, each after prefix, the lines of a that b does not have.
func without(prefix string, a, b []string) []string {
	var out []string
	for _, l := range a {
		if !slices.Contains(b, l) {
			out = append(out, prefix+strings.TrimSpace(l))
		}
	}
	return out
}
