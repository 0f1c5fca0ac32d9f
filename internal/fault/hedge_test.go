package fault

import (
	"testing"

	"pioqo/internal/device"
	"pioqo/internal/obs"
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
	run := func(armed bool) (sim.Time, *obs.Registry, int) {
		env := sim.NewEnv(1)
		rec := obs.NewRegistry(env)
		inj := Wrap(env, rec, device.NewSSD(env, device.DefaultSSDConfig()))
		inj.Arm(Schedule{Seed: 7, Windows: []Window{{
			StragglerRate:    0.5,
			StragglerLatency: sim.Duration(50 * sim.Millisecond),
		}}})
		h := NewHedger(env, rec, inj, sim.Duration(1*sim.Millisecond))
		if armed {
			h.Arm()
		}
		end, fired := readAll(env, h, 64)
		return end, rec, fired
	}
	slow, off, offFired := run(false)
	fast, on, onFired := run(true)
	if offFired != 64 || onFired != 64 {
		t.Fatalf("completions fired %d/%d, want 64/64 — a losing copy leaked", offFired, onFired)
	}
	if n := counted(off, obs.MetricShardHedgeIssued); n != 0 {
		t.Errorf("disarmed hedger issued %d speculative reads", n)
	}
	if issued, wins := counted(on, obs.MetricShardHedgeIssued), counted(on, obs.MetricShardHedgeWins); issued == 0 || wins == 0 {
		t.Fatalf("armed hedger under 50%% stragglers: issued=%d wins=%d, want both > 0", issued, wins)
	}
	if fast >= slow {
		t.Errorf("hedging did not help: %d hedged vs %d unhedged", fast, slow)
	}
}

// TestHedgerExactlyOnce: when every copy is in flight, the outer
// completion fires exactly once (the winner), and the losers' completions
// are absorbed by the hedger.
func TestHedgerExactlyOnce(t *testing.T) {
	env := sim.NewEnv(1)
	rec := obs.NewRegistry(env)
	inj := Wrap(env, rec, device.NewSSD(env, device.DefaultSSDConfig()))
	// Every read is a straggler: each delay passes with no copy landed, so
	// every read races its whole cap of copies, each just as slow, and all
	// of them run to completion.
	inj.Arm(Schedule{Seed: 3, Windows: []Window{{
		StragglerRate:    1.0,
		StragglerLatency: sim.Duration(30 * sim.Millisecond),
	}}})
	h := NewHedger(env, rec, inj, sim.Duration(1*sim.Millisecond))
	h.Arm()
	_, fired := readAll(env, h, 16)
	if fired != 16 {
		t.Fatalf("outer completions fired %d times for 16 reads", fired)
	}
	if got, want := counted(rec, obs.MetricShardHedgeIssued), int64(16*maxCopies); got != want {
		t.Errorf("issued %d hedges for 16 always-straggling reads, want %d (the cap on each)", got, want)
	}
	if got, want := counted(rec, obs.MetricFaultStragglers), int64(16*(1+maxCopies)); got != want {
		t.Errorf("injector saw %d straggler draws, want %d (every copy of every read)", got, want)
	}
}

// TestHedgerReracesALateCopy: when the original read and its first copy
// both straggle, the race does not wait out the straggler latency — a delay
// later a second copy goes out, and it lands within a few delays plus the
// device's service time.
func TestHedgerReracesALateCopy(t *testing.T) {
	const delay = sim.Duration(1 * sim.Millisecond)
	env := sim.NewEnv(1)
	rec := obs.NewRegistry(env)
	inj := Wrap(env, rec, device.NewSSD(env, device.DefaultSSDConfig()))
	h := NewHedger(env, rec, inj, delay)
	h.Arm()
	var start, end sim.Time
	env.Go("reader", func(p *sim.Proc) {
		// Only the original and the first copy are submitted inside the
		// straggling window; the schedule is cleared before the second copy.
		inj.Arm(Schedule{Seed: 3, Windows: []Window{{
			StragglerRate:    1.0,
			StragglerLatency: sim.Duration(30 * sim.Millisecond),
		}}})
		env.Schedule(delay+delay/2, inj.Disarm)
		start = env.Now()
		c := h.ReadAt(0, 4096)
		p.Wait(c)
		if err := c.Err(); err != nil {
			t.Errorf("read failed: %v", err)
		}
		end = env.Now()
	})
	env.Run()
	if n := counted(rec, obs.MetricFaultStragglers); n != 2 {
		t.Fatalf("injector drew %d stragglers, want 2 (the original and the first copy)", n)
	}
	if issued, wins := counted(rec, obs.MetricShardHedgeIssued), counted(rec, obs.MetricShardHedgeWins); issued < 2 || wins != 1 {
		t.Errorf("hedger issued %d copies and won %d races; want a second copy that wins", issued, wins)
	}
	if took, bound := end.Sub(start), 3*delay+sim.Millisecond; took > bound {
		t.Errorf("read took %v behind two straggling copies, want at most %v", took, bound)
	}
	if n := h.Races(); n != 0 {
		t.Errorf("%d races still running after the drain", n)
	}
}

// TestHedgerRecordsComeHomeAtDrain: the query's Runtime ends when its
// process exits, but the engine still drains the queue before returning —
// so under stragglers and read errors, with copies lost, copies failed and
// timers expired past the reader's last wake, every race has run its last
// callback once Run returns and every hedge record is back on the free list.
// The always-straggling arm races every read at the cap: each of its copies
// loses but one, and all of them land after the reader has moved on.
func TestHedgerRecordsComeHomeAtDrain(t *testing.T) {
	for _, c := range []struct {
		name   string
		window Window
		atCap  bool // every read races maxCopies copies
	}{
		{"stragglers and errors", Window{
			ErrorRate:        0.2,
			StragglerRate:    0.3,
			StragglerLatency: sim.Duration(20 * sim.Millisecond),
		}, false},
		{"every copy straggles", Window{
			StragglerRate:    1.0,
			StragglerLatency: sim.Duration(20 * sim.Millisecond),
		}, true},
	} {
		env := sim.NewEnv(1)
		rec := obs.NewRegistry(env)
		inj := Wrap(env, rec, device.NewSSD(env, device.DefaultSSDConfig()))
		inj.Arm(Schedule{Seed: 5, Windows: []Window{c.window}})
		h := NewHedger(env, rec, inj, sim.Duration(1*sim.Millisecond))
		h.Arm()
		if _, fired := readAll(env, h, 256); fired != 256 {
			t.Fatalf("%s: outer completions fired %d times for 256 reads", c.name, fired)
		}
		errs, stragglers := counted(rec, obs.MetricFaultErrors), counted(rec, obs.MetricFaultStragglers)
		if stragglers == 0 || (c.window.ErrorRate > 0 && errs == 0) {
			t.Fatalf("%s: injector drew %d errors and %d stragglers; the run must see both", c.name, errs, stragglers)
		}
		if issued := counted(rec, obs.MetricShardHedgeIssued); issued == 0 || (c.atCap && issued != 256*maxCopies) {
			t.Fatalf("%s: %d hedges issued for 256 reads", c.name, issued)
		}
		if n := h.Races(); n != 0 {
			t.Errorf("%s: %d of %d hedge records off the free list after the drain", c.name, n, h.records)
		}
	}
}

// TestHedgerAllocations is the allocation gate on the hedged read path: a
// disarmed hedger adds nothing to the inner device's read, and an armed one
// adds its outer completion plus each issued copy's inner completion — the
// race itself runs on a reused record — and nothing else.
func TestHedgerAllocations(t *testing.T) {
	const page = 4096
	for _, c := range []struct {
		name   string
		delay  sim.Duration
		arm    bool
		hedged bool    // the delay is below the SSD's read latency: every read gets its copies
		limit  float64 // allocations beyond the bare device's and the issued copies'
	}{
		{"disarmed", 2 * sim.Millisecond, false, false, 0},
		{"armed, hedge never issued", 2 * sim.Millisecond, true, false, 1},
		{"armed, every read hedged", 20 * sim.Microsecond, true, true, 1},
	} {
		env := sim.NewEnv(1)
		rec := obs.NewRegistry(env)
		ssd := device.NewSSD(env, device.DefaultSSDConfig())
		h := NewHedger(env, rec, ssd, c.delay)
		if c.arm {
			h.Arm()
		}
		env.Go("gate", func(p *sim.Proc) {
			next := int64(0)
			reads := 0
			readOn := func(dev device.Device) func() {
				return func() {
					p.Wait(dev.ReadAt(next, page))
					// A lost copy is still in flight when the winner wakes
					// the reader; let it land so its record is free again.
					p.Sleep(sim.Millisecond)
					next = (next + 3*page) % (4 << 20)
					reads++
				}
			}
			for i := 0; i < 64; i++ {
				readOn(h)()
			}
			bare := testing.AllocsPerRun(100, readOn(ssd))
			issued, before := counted(rec, obs.MetricShardHedgeIssued), reads
			got := testing.AllocsPerRun(100, readOn(h))
			copies := float64(counted(rec, obs.MetricShardHedgeIssued)-issued) / float64(reads-before)
			if got-bare-copies > c.limit {
				t.Errorf("%s: %v allocations per read over the bare device's %v and %v issued copies', want at most %v",
					c.name, got-bare-copies, bare, copies, c.limit)
			}
			if hedged := copies > 0; hedged != c.hedged {
				t.Errorf("%s: hedges issued = %v", c.name, hedged)
			}
		})
		env.Run()
	}
}
