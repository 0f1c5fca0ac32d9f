package pioqo

import (
	"bytes"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// A boundary is one rule about who may import, call or construct what, over
// the files in its scope (slash paths from the module root). It also fails if
// a subject ("file:Name", what it guards) is gone, or if its plant, a file
// that breaks it (path on the first line), passes.
type boundary struct {
	name, rule string
	in         func(path string) bool
	breaks     func(*source) []token.Pos
	subjects   []string
	plant      string
}

type source struct {
	src  []byte
	file *ast.File
}

var boundaries = []boundary{
	{"golden", "internal/golden registers -update and -golden-rows when imported: only _test.go files may import it",
		engineIn(""), imports("pioqo/internal/golden"), []string{"internal/golden/golden.go:Check"},
		"cmd/x/main.go\npackage main\nimport _ \"pioqo/internal/golden\""},
	{"reference", "internal/reference is the naive evaluator answers are held to: only _test.go files may import it",
		engineIn(""), imports("pioqo/internal/reference"), []string{"internal/reference/reference.go:Aggregate", "internal/reference/reference.go:GroupBy",
			"internal/reference/reference.go:Join"},
		"internal/exec/x.go\npackage exec\nimport _ \"pioqo/internal/reference\""},
	{"node-assembly", "a node's storage stack is assembled in internal/node: the public package calls no raw constructor",
		func(p string) bool { return engineIn("")(p) && !strings.Contains(p, "/") },
		refs(nil, "workload.NewDevice", "fault.Wrap", "buffer.NewPool", "buffer.NewShares", "disk.NewManager"),
		[]string{"internal/node/node.go:New", "internal/workload/workload.go:NewDevice", "internal/fault/inject.go:Wrap",
			"internal/buffer/buffer.go:NewPool", "internal/buffer/share.go:NewShares", "internal/disk/disk.go:NewManager"},
		"pioqo.go\npackage pioqo\nfunc f() { _ = buffer.NewPool(nil, 8) }"},
	{"batch-cpu", "worker CPU is charged through cpuBudget or useCPU (batch.go), never by a raw Use of the CPU resource",
		engineIn("internal/exec/", "internal/exec/batch.go"),
		refs(func(e ast.Expr) bool { s, ok := e.(*ast.SelectorExpr); return ok && s.Sel.Name == "CPU" }, ".Use"),
		[]string{"internal/exec/batch.go:cpuBudget", "internal/exec/batch.go:useCPU"},
		"internal/exec/x.go\npackage exec\nfunc f(p *sim.Proc, ctx *Context) { p.Use(ctx.CPU, 1) }"},
	{"max-beneficial-depth", "queue-depth supply is the broker's: only internal/broker reads MaxBeneficialDepth",
		engineIn("", "internal/cost/", "internal/broker/"), refs(nil, ".MaxBeneficialDepth"),
		[]string{"internal/cost/cost.go:MaxBeneficialDepth"},
		"internal/opt/x.go\npackage opt\nfunc f(m *cost.QDTT) int { return m.MaxBeneficialDepth(1) }"},
	{"error-taxonomy", "cancellation, deadlines, device faults and closed admission wrap internal/fault's sentinels",
		engineIn("", "internal/fault/"), refs(func(e ast.Expr) bool {
			l, ok := e.(*ast.BasicLit)
			return ok && l.Kind == token.STRING && taxonomyWords.MatchString(l.Value)
		}, "errors.New", "fmt.Errorf"),
		[]string{"internal/fault/fault.go:ErrCanceled", "internal/fault/fault.go:ErrDeadlineExceeded",
			"internal/fault/fault.go:ErrDeviceFault", "internal/fault/fault.go:ErrAdmissionClosed"},
		"session.go\npackage pioqo\nvar errX = errors.New(\"query canceled\")"},
	{"context", "the executor takes its abort signal from fault.Control: internal/exec imports no context",
		engineIn("internal/exec/"), imports("context"), []string{"internal/fault/control.go:Control"},
		"internal/exec/x.go\npackage exec\nimport \"context\""},
	{"shared-consumer", "a rider consumes what its circulating producer pushes: shared.go neither fetches nor prefetches",
		engineIn("internal/exec/shared.go"),
		refs(nil, ".FetchPage", ".FetchPageE", ".Prefetch", ".PrefetchRun", ".PrefetchRunTrimmed", ".ReadAhead", ".fetchE", ".fetchRetry", ".prefetch"),
		[]string{"internal/exec/shared.go:evalPage", "internal/exec/shared.go:runSharedFullScan",
			"internal/exec/batch.go:fetchE", "internal/exec/batch.go:fetchRetry", "internal/exec/batch.go:prefetch"},
		"internal/exec/shared.go\npackage exec\nfunc f(b *cpuBudget) { b.prefetch(nil, nil, 0) }"},
	{"one-plan-path", "the engine plans through opt.ParamCache: outside internal/opt no engine file calls the deprecated memo constructor or the uncached greedy path",
		engineIn("", "internal/opt/"), refs(nil, "opt.NewMemo", "opt.GreedyChoose"),
		[]string{"internal/opt/paramcache.go:NewMemo", "internal/opt/greedy.go:GreedyChoose"},
		"query.go\npackage pioqo\nfunc f(cfg opt.Config, in opt.Input) { _ = opt.NewMemo().Choose(cfg, in) }"},
	{"gofmt", "every source, test or not, is gofmt-formatted", func(string) bool { return true },
		func(s *source) []token.Pos {
			if out, err := format.Source(s.src); err != nil || !bytes.Equal(out, s.src) {
				return []token.Pos{s.file.Pos()}
			}
			return nil
		}, nil, "x_test.go\npackage x\nfunc  f() {}\n"},
}

var taxonomyWords = regexp.MustCompile(`[Cc]ancel|[Dd]eadline|[Dd]evice fault|[Aa]dmission`)

// engineIn scopes a rule to the non-test sources under prefix but not under
// except, outside bench/ (frozen, and a reader of the engine).
func engineIn(prefix string, except ...string) func(string) bool {
	return func(p string) bool {
		return !strings.HasSuffix(p, "_test.go") && !strings.HasPrefix(p, "bench/") && strings.HasPrefix(p, prefix) &&
			!slices.ContainsFunc(except, func(e string) bool { return strings.HasPrefix(p, e) })
	}
}

// finds reports the position of every node of a file that match accepts.
func finds(match func(ast.Node) bool) func(*source) []token.Pos {
	return func(s *source) (at []token.Pos) {
		ast.Inspect(s.file, func(n ast.Node) bool {
			if n != nil && match(n) {
				at = append(at, n.Pos())
			}
			return true
		})
		return at
	}
}

func imports(path string) func(*source) []token.Pos {
	return finds(func(n ast.Node) bool {
		spec, ok := n.(*ast.ImportSpec)
		return ok && spec.Path.Value == strconv.Quote(path)
	})
}

// refs matches a use of any of names — "pkg.Func" for a package's function,
// ".Name" for a method or field of that name on any value — or, given arg,
// only a call of one with an argument arg accepts.
func refs(arg func(ast.Expr) bool, names ...string) func(*source) []token.Pos {
	named := func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		x, _ := sel.X.(*ast.Ident)
		return slices.Contains(names, "."+sel.Sel.Name) || x != nil && slices.Contains(names, x.Name+"."+sel.Sel.Name)
	}
	return finds(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		return arg == nil && named(n) || ok && arg != nil && named(call.Fun) && slices.ContainsFunc(call.Args, arg)
	})
}

// declares reports whether f declares a function, method, type or value name.
func declares(f *ast.File, name string) bool {
	return len(finds(func(n ast.Node) bool {
		fn, _ := n.(*ast.FuncDecl)
		ts, _ := n.(*ast.TypeSpec)
		vs, _ := n.(*ast.ValueSpec)
		return fn != nil && fn.Name.Name == name || ts != nil && ts.Name.Name == name ||
			vs != nil && slices.ContainsFunc(vs.Names, func(id *ast.Ident) bool { return id.Name == name })
	})(&source{file: f})) > 0
}

func (b boundary) violations(fset *token.FileSet, files map[string]*source) (out []string) {
	for path, s := range files {
		if b.in(path) {
			for _, at := range b.breaks(s) {
				out = append(out, fset.Position(at).String()+": "+b.rule)
			}
		}
	}
	return out
}

// TestBoundaries checks each rule against the module's sources, that its
// subjects still exist, and that it fails its plant.
func TestBoundaries(t *testing.T) {
	t.Parallel()
	fset := token.NewFileSet()
	parse := func(path string, src []byte) *source {
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		return &source{src, f}
	}
	files := map[string]*source{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go"):
			return nil
		}
		src, err := os.ReadFile(path)
		files[filepath.ToSlash(path)] = parse(path, src)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range boundaries {
		t.Run(b.name, func(t *testing.T) {
			for _, sub := range b.subjects {
				if path, name, _ := strings.Cut(sub, ":"); files[path] == nil || !declares(files[path].file, name) {
					t.Errorf("%s is gone, so this rule guards nothing: point it at what replaced it", sub)
				}
			}
			for _, v := range b.violations(fset, files) {
				t.Error(v)
			}
			path, src, _ := strings.Cut(b.plant, "\n")
			if len(b.violations(fset, map[string]*source{path: parse(path, []byte(src))})) == 0 {
				t.Errorf("the planted violation in %s passed: the rule no longer fires", path)
			}
		})
	}
}
