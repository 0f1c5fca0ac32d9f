package golden

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// recorder stands in for a test's T and keeps what the harness reports.
type recorder struct {
	testing.TB
	msgs []string
}

func (r *recorder) Helper()             {}
func (r *recorder) Logf(string, ...any) {}
func (r *recorder) Errorf(format string, args ...any) {
	r.msgs = append(r.msgs, fmt.Sprintf(format, args...))
}
func (r *recorder) Fatalf(format string, args ...any) { r.Errorf(format, args...); runtime.Goexit() }

// report runs f against a recorder on a goroutine of its own, which Fatalf
// may end, and returns what f reported.
func report(f func(testing.TB)) string {
	r := &recorder{}
	done := make(chan struct{})
	go func() { defer close(done); f(r) }()
	<-done
	return strings.Join(r.msgs, "\n")
}

// stream is three sections of four rows with a note between; edit may
// change any row before it is added.
func stream(edit func(section string, i int, row string) string) *Digest {
	d := NewDigest("# test stream\n")
	for _, sec := range []string{"dev/a", "dev/b", "dev/c"} {
		fmt.Fprintf(d, "# %s\n", sec)
		for i := 0; i < 4; i++ {
			d.Add(sec, edit(sec, i, fmt.Sprintf("R %d %s\n", i, sec)))
			d.Tally(sec, "1e-1", "FTS")
		}
		d.Note("# metrics of " + sec)
	}
	return d
}

func TestOneByteMovesOnlyItsSection(t *testing.T) {
	old := stream(func(_ string, _ int, row string) string { return row })
	moved := stream(func(sec string, i int, row string) string {
		if sec == "dev/b" && i == 2 {
			return strings.Replace(row, "R", "W", 1)
		}
		return row
	})
	path := filepath.Join(t.TempDir(), "stream.golden")
	if err := os.WriteFile(path, []byte(old.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if msg := report(func(t testing.TB) { old.Check(t, path) }); msg != "" {
		t.Fatalf("the stream failed against its own golden: %s", msg)
	}
	msg := report(func(t testing.TB) { moved.Check(t, path) })
	if !strings.Contains(msg, "dev/b: rows moved") || strings.Contains(msg, "dev/a") || strings.Contains(msg, "dev/c") {
		t.Errorf("the failure should name dev/b and only dev/b:\n%s", msg)
	}
}

func TestGoldenRowsReportTheFirstDivergingRow(t *testing.T) {
	dir := t.TempDir()
	*rowsDir = dir
	defer func() { *rowsDir = "" }()
	path := filepath.Join(dir, "stream.golden")
	same := func(_ string, _ int, row string) string { return row }
	d := stream(same)
	if err := os.WriteFile(path, []byte(d.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	report(func(t testing.TB) { d.Check(t, path) }) // writes dir/stream.rows
	if rows, err := os.ReadFile(filepath.Join(dir, "stream.rows")); err != nil || string(rows) != d.rows.String() {
		t.Fatalf("-golden-rows did not write the rows: %v", err)
	}
	msg := report(func(t testing.TB) {
		stream(func(sec string, i int, row string) string {
			if sec == "dev/c" && i == 1 {
				return "R 1 dev/c moved\n"
			}
			return row
		}).Check(t, path)
	})
	if want := "at line 15:\n old R 1 dev/c\n new R 1 dev/c moved"; !strings.Contains(msg, want) {
		t.Errorf("want the first diverging row old beside new (%q), got:\n%s", want, msg)
	}
	for _, c := range []struct{ old, new, want string }{
		{"a\nb\n", "a\n", "line 2:\n old b\n new <end of file>"},
		{"a\n", "a\nb\n", "line 2:\n old <end of file>\n new b"},
		{"a\nb\n", "a\nb\n", ""},
	} {
		if got := FirstDiff(c.old, c.new); got != c.want {
			t.Errorf("FirstDiff(%q, %q) = %q, want %q", c.old, c.new, got, c.want)
		}
	}
}

func TestMissingGoldenAsksForUpdate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "absent.golden")
	for _, check := range []func(testing.TB){
		func(t testing.TB) { Check(t, path, "x\n") },
		func(t testing.TB) { stream(func(_ string, _ int, row string) string { return row }).Check(t, path) },
	} {
		if msg := report(check); !strings.Contains(msg, "run with -update") {
			t.Errorf("want the -update hint, got %q", msg)
		}
	}
}

func TestTwiceCatchesWhatARunLeavesBehind(t *testing.T) {
	runs := 0
	leaky := func() *Digest {
		runs++
		return stream(func(sec string, i int, row string) string {
			if sec == "dev/c" && runs > 1 {
				return "R again\n"
			}
			return row
		})
	}
	if msg := report(func(t testing.TB) { Twice(t, leaky) }); !strings.Contains(msg, "a second run in the same process diverges") {
		t.Errorf("a producer whose second run differs passed: %q", msg)
	}
	clean := func() string { return "same\n" }
	if msg := report(func(t testing.TB) { Twice(t, clean) }); msg != "" {
		t.Errorf("a producer that repeats itself failed: %s", msg)
	}
}
