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
// backticks, T an exported type of this package (System, Session,
// PlanOptions, Plan, Config, Query, Result, …), must name a method or
// field of T, and a pioqo.X an identifier of this package (rootNames), so
// a deleted name cannot linger in the docs. A pkg.X or pkg.T.X inside
// backticks, pkg a directory under internal/, must name an identifier that
// package's non-test files declare, and T.X a field or method of its type
// T (declaredNames); a bench/ metric or event name that reads like one
// (`buffer.hits`, `fault.errors`) is the metric rule's and is exempt.
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
	dirs, err := filepath.Glob("internal/*")
	if err != nil {
		t.Fatal(err)
	}
	type declared struct {
		top     map[string]bool
		members map[string]map[string]bool
	}
	internal := map[string]declared{}
	var pkgs []string
	for _, dir := range dirs {
		var d declared
		d.top, d.members = declaredNames(t, dir)
		internal[filepath.Base(dir)] = d
		pkgs = append(pkgs, filepath.Base(dir))
	}
	citedQualified := regexp.MustCompile(`(?:^|[^.\w])(` + strings.Join(pkgs, "|") + `)\.(\w+)(?:\.(\w+))?`)
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
		for _, span := range codeSpan.FindAllString(string(src), -1) {
			for _, m := range citedQualified.FindAllStringSubmatch(span, -1) {
				pkg, cite := internal[m[1]], m[1]+"."+m[2]
				if metrics[cite] || fileName.MatchString(cite) {
					continue
				}
				if !pkg.top[m[2]] {
					t.Errorf("%s cites %s, and internal/%s declares no such name", doc, cite, m[1])
				} else if m[3] != "" && !pkg.members[m[2]][m[3]] {
					t.Errorf("%s cites %s.%s, and %s has no such field or method", doc, cite, m[3], cite)
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

// TestDesignCitationsNameItsSections holds every "DESIGN.md §N" that a Go
// file of the repository, README.md or EXPERIMENTS.md writes — backticked
// or plain — to a "## N." heading of DESIGN.md, and a title quoted after
// it (§8, "Executor") to a "###" heading inside that section.
func TestDesignCitationsNameItsSections(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]map[string]bool{}
	var cur map[string]bool
	heading := regexp.MustCompile(`^## (\d+)\.`)
	for _, line := range strings.Split(string(design), "\n") {
		if m := heading.FindStringSubmatch(line); m != nil {
			cur = map[string]bool{}
			sections[m[1]] = cur
		} else if title, ok := strings.CutPrefix(line, "### "); ok && cur != nil {
			cur[title] = true
		}
	}
	docs := []string{"README.md", "EXPERIMENTS.md"}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return fs.SkipDir
		}
		if strings.HasSuffix(path, ".go") {
			docs = append(docs, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cite := regexp.MustCompile("DESIGN\\.md`?[\\s/]*§\\s*(\\d+)(?:,\\s*\"([^\"]+)\")?")
	for _, doc := range docs {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range cite.FindAllStringSubmatch(string(src), -1) {
			titles, ok := sections[m[1]]
			title := strings.Join(strings.Fields(m[2]), " ")
			switch {
			case !ok:
				t.Errorf("%s cites DESIGN.md §%s, and DESIGN.md has no \"## %s.\" heading", doc, m[1], m[1])
			case title != "" && !titles[title]:
				t.Errorf("%s cites DESIGN.md §%s, %q, and that section has no such \"###\" heading", doc, m[1], title)
			}
		}
	}
}

// TestDesignStaysADesign holds DESIGN.md to the design: its invariants,
// equivalence arguments and their reasons, citing bench/ metrics, tests and
// BENCH_TRAJECTORY.jsonl rows where a number would go. Run logs belong in
// CHANGES.md and the trajectory, so the file stays under maxBytes and §8
// under maxPerfLines; and it cites no ROADMAP item, since the roadmap is
// renumbered each time it is re-anchored.
func TestDesignStaysADesign(t *testing.T) {
	const maxBytes, maxPerfLines = 70_000, 250
	src, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if len(src) >= maxBytes {
		t.Errorf("DESIGN.md is %d bytes; it stays under %d", len(src), maxBytes)
	}
	perf, in := 0, false
	for _, line := range strings.Split(string(src), "\n") {
		if strings.HasPrefix(line, "## ") {
			in = strings.HasPrefix(line, "## 8.")
		}
		if in {
			perf++
		}
	}
	if perf == 0 || perf >= maxPerfLines {
		t.Errorf("DESIGN.md §8 runs %d lines; it has one and keeps it under %d", perf, maxPerfLines)
	}
	roadmap := regexp.MustCompile(`ROADMAP|\b[Ii]tems? \d+`)
	for i, line := range strings.Split(string(src), "\n") {
		if m := roadmap.FindString(line); m != "" {
			t.Errorf("DESIGN.md:%d cites %q; the roadmap's items are renumbered, so the design does not cite them", i+1, m)
		}
	}
}

// rootNames returns, under each exported type of this package, the fields
// and methods of that type, and under "pioqo" every top-level identifier.
func rootNames(t *testing.T) map[string]map[string]bool {
	top, members := declaredNames(t, ".")
	names := map[string]map[string]bool{"pioqo": top}
	for typ, m := range members {
		if ast.IsExported(typ) {
			names[typ] = m
		}
	}
	return names
}

// declaredNames parses the non-test files of the package in dir and returns
// its top-level identifiers and, under each type's name, the fields,
// embedded types and interface methods it declares and the methods declared
// on it.
func declaredNames(t *testing.T, dir string) (top map[string]bool, members map[string]map[string]bool) {
	top, members = map[string]bool{}, map[string]map[string]bool{}
	add := func(typ, name string) {
		if members[typ] == nil {
			members[typ] = map[string]bool{}
		}
		members[typ][name] = true
	}
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						top[d.Name.Name] = true
					} else if typ := baseType(d.Recv.List[0].Type); typ != "" {
						add(typ, d.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch sp := spec.(type) {
						case *ast.TypeSpec:
							top[sp.Name.Name] = true
							fields := &ast.FieldList{}
							switch ty := sp.Type.(type) {
							case *ast.StructType:
								fields = ty.Fields
							case *ast.InterfaceType:
								fields = ty.Methods
							}
							for _, field := range fields.List {
								for _, n := range field.Names {
									add(sp.Name.Name, n.Name)
								}
								if len(field.Names) == 0 {
									add(sp.Name.Name, baseType(field.Type))
								}
							}
						case *ast.ValueSpec:
							for _, n := range sp.Names {
								top[n.Name] = true
							}
						}
					}
				}
			}
		}
	}
	return top, members
}

// baseType names the type a receiver or embedded field expression refers
// to: T, *T, T[P], pkg.T.
func baseType(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.StarExpr:
		return baseType(x.X)
	case *ast.IndexExpr:
		return baseType(x.X)
	case *ast.IndexListExpr:
		return baseType(x.X)
	case *ast.SelectorExpr:
		return x.Sel.Name
	}
	return ""
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
