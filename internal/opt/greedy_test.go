package opt

import (
	"testing"

	"pioqo/internal/cost"
	"pioqo/internal/exec"
)

// selPoints is the selectivity grid the greedy-vs-full quality tests sweep:
// geometric from 0.001% to 100%, dense enough to cross every plan regime.
func selPoints() []float64 {
	var out []float64
	for sel := 1e-5; sel <= 1.0; sel *= 1.5 {
		out = append(out, sel)
	}
	return append(out, 1.0)
}

// TestGreedyMatchesFullEnumeration is the quality gate behind the serving
// fast path: across the selectivity × device grid the greedy choice must be
// the full enumeration's winner on ≥ 95% of points, and cost within 5% of
// it everywhere (the acceptance margins; planbench measures the same thing
// at experiment scale).
func TestGreedyMatchesFullEnumeration(t *testing.T) {
	for _, dev := range []string{"ssd", "hdd"} {
		f := newFixture(t, dev, 200000, 33)
		for _, prefetch := range [][]int{nil, {2, 4, 8, 16, 32}} {
			cfg := f.cfg
			cfg.Model = f.qdtt
			cfg.PrefetchDepths = prefetch
			var points, agree int
			for _, sel := range selPoints() {
				in := f.in
				in.Lo, in.Hi = rangeFor(f.in.Table, sel)
				full := Choose(cfg, in)
				greedy, _ := GreedyChoose(cfg, in)
				points++
				if greedy == full {
					agree++
					continue
				}
				if regret := greedy.TotalMicros/full.TotalMicros - 1; regret > 0.05 {
					t.Errorf("%s pf=%v sel=%.5f: greedy %v regrets %.1f%% vs full %v",
						dev, prefetch, sel, greedy, regret*100, full)
				}
			}
			if agree*100 < points*95 {
				t.Errorf("%s pf=%v: greedy agreed on %d/%d points, want >= 95%%",
					dev, prefetch, agree, points)
			}
		}
	}
}

// TestGreedyFallsBackAtBreakEven pins the fallback trigger: at the
// index-scan/full-scan break-even selectivity the two families price within
// the margin, so the fast path must fall back to full enumeration — and
// therefore return exactly its winner.
func TestGreedyFallsBackAtBreakEven(t *testing.T) {
	f := newFixture(t, "ssd", 200000, 33)
	cfg := f.cfg
	cfg.Model = f.qdtt
	be := f.breakEven(t, f.qdtt)

	in := f.in
	in.Lo, in.Hi = rangeFor(f.in.Table, be)
	greedy, fell := GreedyChoose(cfg, in)
	if !fell {
		t.Fatalf("sel=%.5f (break-even): greedy did not fall back", be)
	}
	if full := Choose(cfg, in); greedy != full {
		t.Errorf("fallback chose %v, full enumeration chose %v", greedy, full)
	}

	// Far from the crossover the fast path should trust itself.
	in.Lo, in.Hi = rangeFor(f.in.Table, be/100)
	if _, fell := GreedyChoose(cfg, in); fell {
		t.Errorf("sel=%.6f (well below break-even): greedy fell back", be/100)
	}
}

// TestCrossoverPrefetchIsArgmin checks the precomputed table against a
// brute-force sweep of the model's page-cost surface.
func TestCrossoverPrefetchIsArgmin(t *testing.T) {
	f := newFixture(t, "ssd", 200000, 33)
	cfg := f.cfg
	cfg.Model = f.qdtt
	cfg.PrefetchDepths = []int{2, 4, 8, 16, 32}
	cfg.QueueBudget = 24
	band := f.in.Table.Pages()

	cx := computeCrossover(&cfg, band)
	for i, d := range cfg.degrees() {
		best, bestCost := 0, cfg.Model.PageCost(band, capDepth(&cfg, d))
		for _, pf := range cfg.PrefetchDepths {
			if c := cfg.Model.PageCost(band, capDepth(&cfg, d*pf)); c < bestCost {
				best, bestCost = pf, c
			}
		}
		if cx.prefetch[i] != best {
			t.Errorf("degree %d: crossover prefetch %d, brute force %d", d, cx.prefetch[i], best)
		}
	}
}

// TestGreedySharedCandidate mirrors TestSharedScanCandidate on the fast
// path: in the one-credit fair-share regime a full-table scan with live
// parties must ride the circulating scan.
func TestGreedySharedCandidate(t *testing.T) {
	f := newFixture(t, "ssd", 60000, 33)
	cfg := f.cfg
	cfg.Model = f.qdtt
	cfg.ShareParties = 8
	cfg.QueueBudget = 1
	in := f.in
	in.Lo, in.Hi = rangeFor(f.in.Table, 1.0)

	best, _ := GreedyChoose(cfg, in)
	if !best.Shared {
		t.Errorf("greedy chose %v, want the shared plan", best)
	}
	if full := Choose(cfg, in); best != full {
		t.Errorf("greedy %v != full %v", best, full)
	}
}

// TestGreedyQueueBudgetSerialFallback mirrors Enumerate's guarantee that a
// queue budget below every enumerable degree still yields serial plans.
func TestGreedyQueueBudgetSerialFallback(t *testing.T) {
	f := newFixture(t, "ssd", 50000, 33)
	cfg := f.cfg
	cfg.Model = f.qdtt
	cfg.Degrees = []int{4, 8}
	cfg.QueueBudget = 2
	in := f.in
	in.Lo, in.Hi = rangeFor(f.in.Table, 0.01)

	best, _ := GreedyChoose(cfg, in)
	if best.Degree != 1 {
		t.Errorf("budget below every degree: greedy chose degree %d, want 1", best.Degree)
	}
	if full := Choose(cfg, in); best != full {
		t.Errorf("greedy %v != full %v", best, full)
	}
}

// TestGreedyDepthObliviousModel runs the fast path under the DTT model: a
// depth-oblivious surface makes every prefetch pointless, and the old
// optimizer's preference for serial index scans must survive the shortcut.
func TestGreedyDepthObliviousModel(t *testing.T) {
	f := newFixture(t, "ssd", 200000, 33)
	cfg := f.cfg
	var model cost.Model = f.dtt
	cfg.Model = model
	// Probed at half the model's own break-even: wherever the old optimizer
	// takes an index scan, it is the serial one.
	in := f.in
	in.Lo, in.Hi = rangeFor(f.in.Table, f.breakEven(t, model)/2)
	best, _ := GreedyChoose(cfg, in)
	if best.Method != exec.IndexScan || best.Degree != 1 {
		t.Errorf("DTT greedy chose %v, want serial IndexScan", best)
	}
}
