package obs_test

import (
	"context"
	"sort"
	"testing"
	"time"

	"pioqo"
	"pioqo/internal/obs"
)

// TestCountersAreTheirEvents runs a sharded, hedged, brokered, shared-scan
// mix with the event ring on and large enough not to wrap, and checks that
// every counter an event row feeds moved by exactly what the row's events
// add over the same interval: one Emit records both, so they cannot drift.
// opt.optimizations and opt.plans_enumerated are also counted directly by
// every full enumeration (see the catalog), so they may only exceed it.
func TestCountersAreTheirEvents(t *testing.T) {
	seen := map[string]int{}
	mixes := []struct {
		name string
		run  func(t *testing.T, sys *pioqo.System, tab *pioqo.Table)
		cfg  pioqo.Config
	}{
		{"sharded-hedged", runScatters, pioqo.Config{Device: pioqo.SSD, PoolPages: 1024, Shards: 4,
			HedgeDelay: 2 * time.Millisecond}},
		{"serving-shared", runServing, pioqo.Config{Device: pioqo.SSD, PoolPages: 768}},
	}
	// Each mix runs twice in one process: what the first run leaves behind
	// (a counter, a catalog row) would show in the second's deltas.
	for _, mix := range append(mixes, mixes...) {
		t.Run(mix.name, func(t *testing.T) {
			sys := pioqo.New(mix.cfg)
			sys.EnableEventLog(1 << 18)
			tab, err := sys.CreateTable("t", 200000, 33)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Calibrate(pioqo.CalibrationOptions{MaxReads: 640}); err != nil {
				t.Fatal(err)
			}
			sys.EnableEventLog(1 << 18) // a fresh ring: Seq restarts at 0
			before := sys.MetricsSnapshot()
			mix.run(t, sys, tab)
			got := sys.MetricsSince(before)

			evs := sys.EngineEvents()
			if len(evs) > 0 && evs[0].Seq != 0 {
				t.Fatalf("ring wrapped: %d events dropped", evs[0].Seq)
			}
			want := map[string]int64{}
			for _, e := range evs {
				seen[e.Name]++
				for name, n := range obs.Fed(e.Name, e.A, e.B) {
					want[name] += n
				}
			}
			for name := range obs.FedCounters() {
				g, w := got.Counter(name), want[name]
				direct := name == obs.MetricOptOptimizations.Name() || name == obs.MetricOptPlansEnumerated.Name()
				if g != w && !(direct && g > w) {
					t.Errorf("%s moved by %d, its events add %d", name, g, w)
				}
			}
		})
	}
	// The mix must reach the decisions whose counters it checks.
	var missing []string
	for _, name := range []string{
		"shard.scatter", "shard.hedge.issue", "shard.hedge.win", "read.retry", "fault.error", "fault.straggler",
		"admission.grant", "scanshare.attach", "scanshare.detach", "scanshare.lap",
		"plancache.band_hit", "plancache.band_miss", "planner.greedy",
	} {
		if seen[name] == 0 {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		names := make([]string, 0, len(seen))
		for n := range seen {
			names = append(names, n)
		}
		sort.Strings(names)
		t.Errorf("the mix never emitted %v (it emitted %v)", missing, names)
	}
}

// runScatters gathers ranges across the shards under stragglers and read
// errors, with the hedgers armed.
func runScatters(t *testing.T, sys *pioqo.System, tab *pioqo.Table) {
	sys.InjectFaults(pioqo.FaultSchedule{Windows: []pioqo.FaultWindow{{
		StragglerRate: 0.10, StragglerLatency: 20 * time.Millisecond, ErrorRate: 0.002,
	}}})
	for i := int64(0); i < 8; i++ {
		q := pioqo.Query{Table: tab, Low: i * 20000, High: i*20000 + 40000}
		if _, err := sys.Run(context.Background(), q, pioqo.WithRetry(pioqo.RetryPolicy{MaxAttempts: 8})); err != nil {
			t.Fatal(err)
		}
	}
}

// runServing runs a brokered batch of point lookups beside full scans that
// ride circulating scans, then two range scans alone, then plans the
// batch's queries again.
func runServing(t *testing.T, sys *pioqo.System, tab *pioqo.Table) {
	var qs []pioqo.Query
	for i := int64(0); i < 40; i++ {
		qs = append(qs, pioqo.Query{Table: tab, Low: i * 997, High: i * 997})
	}
	for i := 0; i < 4; i++ {
		qs = append(qs, pioqo.Query{Table: tab, Low: 0, High: 199999})
	}
	if _, err := sys.ExecuteConcurrent(qs, pioqo.Cold()); err != nil {
		t.Fatal(err)
	}
	for _, hi := range []int64{999, 3999} {
		if _, err := sys.Run(context.Background(), pioqo.Query{Table: tab, Low: 0, High: hi}, pioqo.Cold()); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range qs {
		if _, err := sys.Plan(q, pioqo.PlanOptions{}); err != nil {
			t.Fatal(err)
		}
	}
}
