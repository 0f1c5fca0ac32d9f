package fault

import (
	"testing"

	"pioqo/internal/device"
	"pioqo/internal/sim"
)

// readAll issues n sequential 4 KiB reads on dev and reports the finish
// time plus how many completions fired (each must fire exactly once).
func readAll(env *sim.Env, dev device.Device, n int) (sim.Time, int) {
	fired := 0
	env.Go("reader", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			c := dev.ReadAt(int64(i)*4096, 4096)
			c.OnFire(func() { fired++ })
			p.Wait(c)
		}
	})
	return env.Run(), fired
}

// TestHedgerDisarmedIsPassthrough: a disarmed hedger must not change
// completion timing at all — it returns the inner completion directly.
func TestHedgerDisarmedIsPassthrough(t *testing.T) {
	run := func(hedged bool) sim.Time {
		env := sim.NewEnv(1)
		var dev device.Device = device.NewSSD(env, device.DefaultSSDConfig())
		if hedged {
			dev = NewHedger(env, nil, dev, sim.Duration(2*sim.Millisecond))
		}
		end, fired := readAll(env, dev, 64)
		if fired != 64 {
			t.Fatalf("hedged=%v: %d completions fired, want 64", hedged, fired)
		}
		return end
	}
	if bare, hedged := run(false), run(true); bare != hedged {
		t.Errorf("disarmed hedger changed timing: bare %d, hedged %d", bare, hedged)
	}
}

// TestHedgerRacesStragglers: above an injector that turns every read into a
// straggler on the first draw only, an armed hedger's speculative copy
// re-draws and wins, capping the read near delay + base latency instead of
// the full straggler latency.
func TestHedgerRacesStragglers(t *testing.T) {
	run := func(armed bool) (sim.Time, HedgeStats, int) {
		env := sim.NewEnv(1)
		inj := Wrap(env, nil, device.NewSSD(env, device.DefaultSSDConfig()))
		inj.Arm(Schedule{Seed: 7, Windows: []Window{{
			StragglerRate:    0.5,
			StragglerLatency: sim.Duration(50 * sim.Millisecond),
		}}})
		h := NewHedger(env, nil, inj, sim.Duration(1*sim.Millisecond))
		if armed {
			h.Arm()
		}
		end, fired := readAll(env, h, 64)
		return end, h.Stats(), fired
	}
	slow, offStats, offFired := run(false)
	fast, onStats, onFired := run(true)
	if offFired != 64 || onFired != 64 {
		t.Fatalf("completions fired %d/%d, want 64/64 — a losing copy leaked", offFired, onFired)
	}
	if offStats.Issued != 0 {
		t.Errorf("disarmed hedger issued %d speculative reads", offStats.Issued)
	}
	if onStats.Issued == 0 || onStats.Wins == 0 {
		t.Fatalf("armed hedger under 50%% stragglers: issued=%d wins=%d, want both > 0",
			onStats.Issued, onStats.Wins)
	}
	if fast >= slow {
		t.Errorf("hedging did not help: %d hedged vs %d unhedged", fast, slow)
	}
}

// TestHedgerExactlyOnce: when both copies are in flight, the outer
// completion fires exactly once (the winner), and the loser's completion
// is absorbed by the hedger.
func TestHedgerExactlyOnce(t *testing.T) {
	env := sim.NewEnv(1)
	inj := Wrap(env, nil, device.NewSSD(env, device.DefaultSSDConfig()))
	// Every read is a straggler: the hedge always launches, and its copy is
	// just as slow, so both copies run to completion.
	inj.Arm(Schedule{Seed: 3, Windows: []Window{{
		StragglerRate:    1.0,
		StragglerLatency: sim.Duration(30 * sim.Millisecond),
	}}})
	h := NewHedger(env, nil, inj, sim.Duration(1*sim.Millisecond))
	h.Arm()
	_, fired := readAll(env, h, 16)
	if fired != 16 {
		t.Fatalf("outer completions fired %d times for 16 reads", fired)
	}
	if h.Stats().Issued != 16 {
		t.Errorf("issued %d hedges for 16 always-straggling reads", h.Stats().Issued)
	}
	st := inj.Stats()
	if st.Stragglers != 32 {
		t.Errorf("injector saw %d straggler draws, want 32 (both copies of every read)", st.Stragglers)
	}
}

// TestHedgerRecordsComeHomeAtDrain: the query's Runtime ends when its
// process exits, but the engine still drains the queue before returning —
// so under stragglers and read errors, with copies lost, copies failed and
// timers expired past the reader's last wake, every race has run its last
// callback once Run returns and every hedge record is back on the free list.
func TestHedgerRecordsComeHomeAtDrain(t *testing.T) {
	env := sim.NewEnv(1)
	inj := Wrap(env, nil, device.NewSSD(env, device.DefaultSSDConfig()))
	inj.Arm(Schedule{Seed: 5, Windows: []Window{{
		ErrorRate:        0.2,
		StragglerRate:    0.3,
		StragglerLatency: sim.Duration(20 * sim.Millisecond),
	}}})
	h := NewHedger(env, nil, inj, sim.Duration(1*sim.Millisecond))
	h.Arm()
	if _, fired := readAll(env, h, 256); fired != 256 {
		t.Fatalf("outer completions fired %d times for 256 reads", fired)
	}
	if st := inj.Stats(); st.Errors == 0 || st.Stragglers == 0 {
		t.Fatalf("injector drew %d errors and %d stragglers; the run must see both", st.Errors, st.Stragglers)
	}
	if h.Stats().Issued == 0 {
		t.Fatal("no hedge issued under 30% stragglers")
	}
	if len(h.free) != h.records {
		t.Errorf("%d of %d hedge records on the free list after the drain", len(h.free), h.records)
	}
}

// TestHedgerAllocations is the allocation gate on the hedged read path: a
// disarmed hedger adds nothing to the inner device's read, and an armed one
// adds its outer completion — the race itself runs on a reused record —
// whether or not the speculative copy is issued.
func TestHedgerAllocations(t *testing.T) {
	const page = 4096
	for _, c := range []struct {
		name   string
		delay  sim.Duration
		arm    bool
		hedged bool    // the delay is below the SSD's read latency: every read gets its copy
		limit  float64 // allocations beyond the bare device's
	}{
		{"disarmed", 2 * sim.Millisecond, false, false, 0},
		{"armed, hedge never issued", 2 * sim.Millisecond, true, false, 1},
		{"armed, every read hedged", 20 * sim.Microsecond, true, true, 2}, // and the copy's inner completion
	} {
		env := sim.NewEnv(1)
		ssd := device.NewSSD(env, device.DefaultSSDConfig())
		h := NewHedger(env, nil, ssd, c.delay)
		if c.arm {
			h.Arm()
		}
		env.Go("gate", func(p *sim.Proc) {
			next := int64(0)
			readOn := func(dev device.Device) func() {
				return func() {
					p.Wait(dev.ReadAt(next, page))
					// A lost copy is still in flight when the winner wakes
					// the reader; let it land so its record is free again.
					p.Sleep(sim.Millisecond)
					next = (next + 3*page) % (4 << 20)
				}
			}
			for i := 0; i < 64; i++ {
				readOn(h)()
			}
			bare := testing.AllocsPerRun(100, readOn(ssd))
			issued := h.Stats().Issued
			got := testing.AllocsPerRun(100, readOn(h))
			if got-bare > c.limit {
				t.Errorf("%s: %v allocations per read over the bare device's %v, want at most %v",
					c.name, got-bare, bare, c.limit)
			}
			if hedged := h.Stats().Issued > issued; hedged != c.hedged {
				t.Errorf("%s: hedges issued = %v", c.name, hedged)
			}
		})
		env.Run()
	}
}
