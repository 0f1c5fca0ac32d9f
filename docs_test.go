package pioqo

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsCiteTestsThatExist collects every Test…, Benchmark… and Fuzz…
// identifier README.md, DESIGN.md and EXPERIMENTS.md cite and fails for
// one no test function in the module starts with — a prefix counts, since
// the docs quote -run patterns such as TestResidual. CHANGES.md is history
// and is not scanned.
func TestDocsCiteTestsThatExist(t *testing.T) {
	funcs := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	var defined []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." {
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return fs.SkipDir // a nested module is not this one
			}
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
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
	cited := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
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
