package pioqo

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestDocsCiteTestsThatExist collects every Test…, Benchmark… and Fuzz…
// identifier README.md, DESIGN.md and EXPERIMENTS.md cite and fails for
// one no test function in the module starts with — a prefix counts, since
// the docs quote -run patterns such as TestResidual. It does the same for
// bench/ metric names: a backticked `layer.metric` under a layer bench/
// reports must be a string literal in bench/ or internal/obs, or one of
// the <layer>.host_share shares bench/profile.go builds. A backticked
// `*.go` or `*.golden` path must name one file (namesOneFile), and a
// backticked `scripts/…` or `cmd/…` path must exist. And a T.X inside
// backticks, T an exported struct type of this package (System, Session,
// PlanOptions, Plan, Config, Query, Result, …), must name a method or
// field of T, and a pioqo.X an identifier of this package (rootNames), so
// a deleted name cannot linger in the docs. A T.X qualified by another
// package (opt.Config.Degrees) is that package's and is not checked.
// CHANGES.md is history and is not scanned.
func TestDocsCiteTestsThatExist(t *testing.T) {
	funcs := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	var defined, files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." {
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return fs.SkipDir // a nested module is not this one
			}
		}
		if d.IsDir() {
			return nil
		}
		files = append(files, filepath.ToSlash(path))
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range funcs.FindAllSubmatch(src, -1) {
			defined = append(defined, string(m[1]))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	metrics, layers := benchMetricNames(t)
	cited := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	citedMetric := regexp.MustCompile("`(" + metricName + ")`")
	citedFile := regexp.MustCompile("`([^`\\s]+\\.(?:go|golden))`")
	citedPath := regexp.MustCompile("`(?:\\./)?((?:scripts|cmd)/[^`\\s]*)")
	codeSpan := regexp.MustCompile("`[^`\n]+`")
	names := rootNames(t)
	roots := make([]string, 0, len(names))
	for root := range names {
		roots = append(roots, root)
	}
	citedName := regexp.MustCompile(`(?:^|[^.\w])(` + strings.Join(roots, "|") + `)\.(\w+)`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range citedFile.FindAllStringSubmatch(string(src), -1) {
			if !namesOneFile(m[1], files) {
				t.Errorf("%s cites %s, which names no file of the module or several", doc, m[1])
			}
		}
		for _, m := range citedPath.FindAllStringSubmatch(string(src), -1) {
			if _, err := os.Stat(m[1]); err != nil {
				t.Errorf("%s cites %s, which does not exist", doc, m[1])
			}
		}
		for _, span := range codeSpan.FindAllString(string(src), -1) {
			for _, m := range citedName.FindAllStringSubmatch(span, -1) {
				if cite := m[1] + "." + m[2]; !names[m[1]][m[2]] && !fileName.MatchString(cite) {
					t.Errorf("%s cites %s, and the package defines no such name", doc, cite)
				}
			}
		}
		for _, m := range citedMetric.FindAllStringSubmatch(string(src), -1) {
			if layers[m[2]] && !fileName.MatchString(m[1]) && !metrics[m[1]] {
				t.Errorf("%s cites %s, and bench/ defines no such metric", doc, m[1])
			}
		}
		for _, name := range cited.FindAllString(string(src), -1) {
			found := false
			for _, f := range defined {
				if strings.HasPrefix(f, name) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s cites %s, and no test function starts with it", doc, name)
			}
		}
	}
}

// TestChangesEntriesStayShort holds each CHANGES.md entry numbered
// firstCapped or later to 15 lines and 2 KB, its FOUND and MENDED lines
// counted: numbers go to the entry's BENCH_TRAJECTORY.jsonl row, and the
// entry cites it. An entry is a "- PR n" line and every line up to the next
// one. Earlier entries, some of them 2–13 KB, are history and exempt by
// number.
func TestChangesEntriesStayShort(t *testing.T) {
	const firstCapped, maxLines, maxBytes = 56, 15, 2048
	src, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		head             string
		pr, lines, bytes int
	}
	var entries []entry
	starts := regexp.MustCompile(`^- PR (\d+)\b`)
	for _, line := range strings.Split(strings.TrimRight(string(src), "\n"), "\n") {
		if m := starts.FindStringSubmatch(line); m != nil {
			pr, _ := strconv.Atoi(m[1])
			entries = append(entries, entry{head: m[0], pr: pr})
		}
		if len(entries) > 0 && line != "" {
			e := &entries[len(entries)-1]
			e.lines++
			e.bytes += len(line) + 1
		}
	}
	if len(entries) == 0 {
		t.Fatal("CHANGES.md holds no \"- PR n\" entry")
	}
	for _, e := range entries {
		if e.pr >= firstCapped && (e.lines > maxLines || e.bytes > maxBytes) {
			t.Errorf("CHANGES.md %q runs %d lines and %d bytes; an entry holds at most %d lines and %d bytes",
				e.head, e.lines, e.bytes, maxLines, maxBytes)
		}
	}
}

// rootNames parses the package's non-test files and returns, under each
// exported struct type's name, the methods and fields of that type, and
// under "pioqo" every top-level identifier.
func rootNames(t *testing.T) map[string]map[string]bool {
	names := map[string]map[string]bool{"pioqo": {}}
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The struct types first: a method may be declared before its type.
	for _, f := range pkgs["pioqo"].Files {
		for _, decl := range f.Decls {
			if d, ok := decl.(*ast.GenDecl); ok {
				for _, spec := range d.Specs {
					if sp, ok := spec.(*ast.TypeSpec); ok && sp.Name.IsExported() {
						if _, ok := sp.Type.(*ast.StructType); ok {
							names[sp.Name.Name] = map[string]bool{}
						}
					}
				}
			}
		}
	}
	for _, f := range pkgs["pioqo"].Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					names["pioqo"][d.Name.Name] = true
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok && names[id.Name] != nil {
					names[id.Name][d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						names["pioqo"][sp.Name.Name] = true
						st, ok := sp.Type.(*ast.StructType)
						if !ok || names[sp.Name.Name] == nil {
							continue
						}
						for _, field := range st.Fields.List {
							for _, n := range field.Names {
								names[sp.Name.Name][n.Name] = true
							}
						}
					case *ast.ValueSpec:
						for _, n := range sp.Names {
							names["pioqo"][n.Name] = true
						}
					}
				}
			}
		}
	}
	return names
}

// namesOneFile reports whether a cited file name names one file: the one
// at that path from the root — nested modules included — or else the one
// file of the module whose path ends with it. A bare name thus names a
// root file or its base name's only file, and a name several packages use
// must carry enough of its directory to tell them apart.
func namesOneFile(name string, files []string) bool {
	if _, err := os.Stat(name); err == nil {
		return true
	}
	found := 0
	for _, f := range files {
		if strings.HasSuffix(f, "/"+name) {
			found++
		}
	}
	return found == 1
}

// metricName matches a dotted lower-case name, capturing its layer; fileName
// tells a file such as verify.sh or schedule.golden from a metric.
const metricName = `([a-z]+)\.[a-z0-9_]+`

var fileName = regexp.MustCompile(`\.(go|json|md|sh|golden)$`)

// benchMetricNames returns every metric name bench/ can report, with the
// layers they sit under.
func benchMetricNames(t *testing.T) (metrics, layers map[string]bool) {
	metrics, layers = map[string]bool{}, map[string]bool{}
	literal := regexp.MustCompile(`"(` + metricName + `)"`)
	for _, dir := range []string{"bench", "internal/obs"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no Go files under %s: %v", dir, err)
		}
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range literal.FindAllStringSubmatch(string(src), -1) {
				if fileName.MatchString(m[1]) {
					continue
				}
				metrics[m[1]] = true
				if dir == "bench" {
					layers[m[2]] = true
				}
			}
		}
	}
	profile, err := os.ReadFile("bench/profile.go")
	if err != nil {
		t.Fatal(err)
	}
	list := regexp.MustCompile(`engineLayers = \[\]string\{([^}]*)\}`).FindSubmatch(profile)
	if list == nil {
		t.Fatal("bench/profile.go no longer lists engineLayers; teach this test where the host shares come from")
	}
	for _, l := range regexp.MustCompile(`"(\w+)"`).FindAllSubmatch(list[1], -1) {
		metrics[string(l[1])+".host_share"] = true
	}
	return metrics, layers
}
