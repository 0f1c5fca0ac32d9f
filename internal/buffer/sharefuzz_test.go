package buffer

import (
	"fmt"
	"math/rand"
	"testing"

	"pioqo/internal/fault"
	"pioqo/internal/sim"
)

// TestFuzzShareExactlyOnceUnderFaults randomly attaches and detaches
// consumers mid-flight while the device injects transient error windows,
// and asserts the share's two core invariants: a consumer that rides its
// whole lap sees every page exactly once (no page twice, none skipped,
// faults retried underneath), and however a consumer leaves — lap done,
// early detach, or a fault that survived the retries — the pool's pin
// ledger drains to zero.
//
// All randomness is pre-drawn per consumer from its own seeded source, so
// the schedule is deterministic no matter how the kernel interleaves the
// riders.
func TestFuzzShareExactlyOnceUnderFaults(t *testing.T) {
	const (
		capacity  = 96
		pages     = 320 // 40 blocks of 8
		consumers = 24
	)
	w := newFaultWorld(t, capacity)
	sh := NewShares(w.env, w.pool, ShareConfig{BlockPages: 8, Retry: fault.RetryPolicy{MaxAttempts: 6}})
	w.inj.Arm(fault.Schedule{
		Seed: 7,
		Windows: []fault.Window{
			{From: 1 * sim.Millisecond, To: 3 * sim.Millisecond, ErrorRate: 0.3, ErrorLatency: 100 * sim.Microsecond},
			{From: 6 * sim.Millisecond, To: 7 * sim.Millisecond, ErrorRate: 0.5},
		},
	})

	type outcome struct {
		seen    map[int64]int
		done    bool
		early   bool
		faulted error
	}
	results := make([]outcome, consumers)
	seeds := rand.New(rand.NewSource(42))
	for i := 0; i < consumers; i++ {
		i := i
		rng := rand.New(rand.NewSource(seeds.Int63()))
		delay := sim.Duration(rng.Int63n(int64(8 * sim.Millisecond)))
		detachAfter := int64(-1) // full lap
		if rng.Intn(4) == 0 {    // a quarter bail mid-lap
			detachAfter = 1 + rng.Int63n(20)
		}
		results[i].seen = make(map[int64]int, pages)
		w.env.Go(fmt.Sprintf("rider-%d", i), func(p *sim.Proc) {
			p.Sleep(delay)
			c := sh.Attach(int64(i), w.file, pages)
			var taken int64
			for {
				run, ok, err := c.Next(p)
				if err != nil {
					results[i].faulted = err
					return
				}
				if !ok {
					results[i].done = true
					return
				}
				for j := 0; j < run.Count; j++ {
					pg := run.Start + int64(j)
					if !w.pool.Loaded(w.file, pg) {
						t.Errorf("rider %d: pushed page %d is not resident", i, pg)
					}
					results[i].seen[pg]++
				}
				// Simulate per-block consumption work so riders spread out.
				p.Sleep(sim.Duration(10+rng.Int63n(300)) * sim.Microsecond)
				c.Consumed()
				taken++
				if detachAfter > 0 && taken >= detachAfter {
					c.Detach()
					results[i].early = true
					return
				}
			}
		})
	}
	w.env.Run()

	full, early, faulted := 0, 0, 0
	for i, r := range results {
		for pg, k := range r.seen {
			if k != 1 {
				t.Errorf("rider %d saw page %d %d times", i, pg, k)
			}
		}
		switch {
		case r.done:
			full++
			if len(r.seen) != pages {
				t.Errorf("rider %d completed its lap with %d of %d pages", i, len(r.seen), pages)
			}
		case r.early:
			early++
		case r.faulted != nil:
			faulted++
		default:
			t.Errorf("rider %d neither finished, detached, nor faulted", i)
		}
	}
	if full == 0 {
		t.Fatalf("no rider completed a lap (early=%d faulted=%d) — fault windows too hot for the test to mean anything", early, faulted)
	}
	t.Logf("riders: %d full laps, %d early detaches, %d fault aborts; injected errors=%d", full, early, faulted, w.inj.Stats().Errors)

	if got := w.pool.Pinned(); got != 0 {
		t.Errorf("pin ledger holds %d after all riders left, want 0", got)
	}
	if got := sh.Live(); got != 0 {
		t.Errorf("%d consumers still attached, want 0", got)
	}
	if w.inj.Stats().Errors == 0 {
		t.Error("fault windows injected no errors — the test exercised nothing")
	}
}
