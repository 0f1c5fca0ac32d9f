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
// the docs quote -run patterns such as TestResidual. It does the same for
// bench/ metric names: a backticked `layer.metric` under a layer bench/
// reports must be a string literal in bench/ or internal/obs, or one of
// the <layer>.host_share shares bench/profile.go builds. CHANGES.md is
// history and is not scanned.
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
	metrics, layers := benchMetricNames(t)
	cited := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	citedMetric := regexp.MustCompile("`(" + metricName + ")`")
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
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
