package broker

import (
	"testing"

	"pioqo/internal/sim"
)

func TestPoolInUseTracksReservations(t *testing.T) {
	env, b := newBroker(t, 16, func(c *Config) { c.PoolPages = 1024 })
	a := b.Enqueue(8)
	c := b.Enqueue(8)
	env.Run()
	if got, want := b.PoolInUse(), a.PoolPages()+c.PoolPages(); got != want {
		t.Fatalf("PoolInUse = %d, want %d (sum of live reservations)", got, want)
	}
	a.Release()
	env.Run()
	if got := b.PoolInUse(); got != c.PoolPages() {
		t.Fatalf("PoolInUse after one release = %d, want %d", got, c.PoolPages())
	}
	c.Release()
	env.Run()
	if got := b.PoolInUse(); got != 0 {
		t.Fatalf("PoolInUse after all releases = %d, want 0", got)
	}
}

// TestPoolReservationsNeverOvershootThePool: a device that reports no
// sustained depth makes the broker fund grants from feedback slack, past the
// calibrated supply, while queries come and go and grow. However the credits
// are funded, the reservations together never pass the pool: every grant
// and every growth step is checked, and a slack grant is made on a pool the
// supply has already reserved in full.
func TestPoolReservationsNeverOvershootThePool(t *testing.T) {
	const pool = 1024
	env, b := newBroker(t, 16, func(c *Config) {
		c.PoolPages = pool
		c.DepthProbe = func() float64 { return 0 }
	})
	check := func(what string) {
		if b.PoolInUse() > pool {
			t.Fatalf("%s at %v: %d of %d pool pages reserved", what, env.Now(), b.PoolInUse(), pool)
		}
	}
	grants, slackGrants := 0, 0
	rng := env.Rand()
	for i := 0; i < 64; i++ {
		env.Go("q", func(p *sim.Proc) {
			p.Sleep(sim.Duration(rng.Intn(400)) * sim.Microsecond)
			l := b.Enqueue(1 + rng.Intn(8))
			l.OnAdmit(func() {
				grants++
				if b.slack > 0 {
					slackGrants++
				}
				check("grant")
			})
			l.Admit(p)
			p.Sleep(sim.Duration(50+rng.Intn(200)) * sim.Microsecond)
			l.Grow(rng.Intn(4))
			check("grow")
			p.Sleep(sim.Duration(rng.Intn(200)) * sim.Microsecond)
			l.Release()
		})
	}
	env.Run()
	if grants != 64 || slackGrants == 0 {
		t.Fatalf("%d grants, %d of them with slack out; want 64, some on slack", grants, slackGrants)
	}
	if b.InUse() != 0 || b.PoolInUse() != 0 {
		t.Fatalf("leaked: credits=%d pool=%d", b.InUse(), b.PoolInUse())
	}
}

func TestReleaseBeforeAdmissionLeaksNothing(t *testing.T) {
	// A query that errors between Enqueue and admission (plan failure,
	// validation) withdraws via Release; neither credits nor pool pages may
	// stay debited.
	env, b := newBroker(t, 16, func(c *Config) { c.PoolPages = 1024 })
	a := b.Enqueue(0)
	c := b.Enqueue(0)
	c.Release() // withdrawn while still queued
	env.Run()
	a.Release()
	env.Run()
	if b.InUse() != 0 || b.PoolInUse() != 0 {
		t.Fatalf("leaked: credits=%d pool=%d", b.InUse(), b.PoolInUse())
	}
	if b.Active() != 0 || b.Waiting() != 0 {
		t.Fatalf("broker still tracks %d active, %d waiting", b.Active(), b.Waiting())
	}
}

func TestDegradedSupplyShrinksGrants(t *testing.T) {
	loss := 0.0
	env, b := newBroker(t, 32, func(c *Config) {
		c.DegradeProbe = func() float64 { return loss }
	})
	// Healthy: two demand-16 queries split the full supply.
	a := b.Enqueue(16)
	c := b.Enqueue(16)
	env.Run()
	healthy := a.Budget() + c.Budget()
	a.Release()
	c.Release()
	env.Run()

	// Degraded 50%: grants must come out of a 16-credit supply, so the
	// second query waits.
	loss = 0.5
	d := b.Enqueue(16)
	e := b.Enqueue(16)
	env.Run()
	degraded := d.Budget() + e.Budget()
	if degraded > 16 {
		t.Errorf("degraded grants total %d, want <= 16 (half supply)", degraded)
	}
	if degraded >= healthy {
		t.Errorf("degraded grants total %d, healthy %d; degradation did not shrink supply", degraded, healthy)
	}
	d.Release()
	e.Release()
	env.Run()
	if b.InUse() != 0 {
		t.Fatalf("credits leaked across degradation: %d", b.InUse())
	}
}

func TestDegradedSoleQueryGetsBoundedLease(t *testing.T) {
	env, b := newBroker(t, 32, func(c *Config) {
		c.DegradeProbe = func() float64 { return 0.5 }
	})
	l := b.Enqueue(0)
	env.Run()
	// Healthy sole queries are unbounded (budget 0); on a degraded device
	// even a sole query must be capped at the shrunken supply, or it would
	// plan at a depth the device can no longer absorb.
	if l.Budget() != 16 {
		t.Errorf("degraded sole-query budget = %d, want 16", l.Budget())
	}
	l.Release()
	env.Run()
	if b.InUse() != 0 {
		t.Fatalf("credits leaked: %d", b.InUse())
	}
}

// TestDegradedDemandAboveSupplyIsAdmitted: a lease priced deeper than the
// shrunken supply is admitted at the supply, not held for credits the
// degraded device will not hand out, and the one behind it follows once
// the first releases.
func TestDegradedDemandAboveSupplyIsAdmitted(t *testing.T) {
	env, b := newBroker(t, 32, func(c *Config) {
		c.DegradeProbe = func() float64 { return 0.5 }
	})
	d := b.Enqueue(24)
	e := b.Enqueue(24)
	env.Run()
	if !d.admitted || d.Budget() != 16 {
		t.Fatalf("demand 24 on a 16-credit supply: admitted=%v budget=%d, want 16", d.admitted, d.Budget())
	}
	if e.admitted {
		t.Fatal("second lease admitted beyond the degraded supply")
	}
	d.Release()
	env.Run()
	if !e.admitted || e.Budget() != 16 {
		t.Fatalf("after a release: admitted=%v budget=%d, want 16", e.admitted, e.Budget())
	}
	e.Release()
	env.Run()
	if b.InUse() != 0 || b.Active() != 0 {
		t.Fatalf("after all releases: in_use=%d active=%d", b.InUse(), b.Active())
	}
}

func TestFairShareReflectsDegradation(t *testing.T) {
	loss := 0.0
	_, b := newBroker(t, 32, func(c *Config) {
		c.DegradeProbe = func() float64 { return loss }
	})
	healthy := b.FairShare()
	loss = 0.5
	degraded := b.FairShare()
	if degraded >= healthy && healthy != 0 {
		t.Errorf("FairShare healthy=%d degraded=%d; want degraded smaller", healthy, degraded)
	}
}

func TestNilProbeIsHealthy(t *testing.T) {
	env, b := newBroker(t, 16, nil)
	l := b.Enqueue(0)
	env.Run()
	if l.Budget() != 0 {
		t.Errorf("sole query with nil probe: budget = %d, want 0 (unbounded)", l.Budget())
	}
	l.Release()
	env.Run()
}

// TestFairShareIsTheFirstSplit: FairShare is SplitCredits' first share in
// closed form, and ExecuteConcurrent's QueueBudget its last, so neither
// allocates a share per party to read one. Both forms agree with the split
// over every supply a device calibrates to and batches far past any queue
// seen, and FairShare reads its share without allocating behind a long
// queue.
func TestFairShareIsTheFirstSplit(t *testing.T) {
	first := func(supply, parties int) int { return max(1, (supply+parties-1)/parties) }
	last := func(supply, parties int) int { return max(1, supply/parties) }
	for supply := 1; supply <= 64; supply++ {
		for parties := 1; parties <= 4096; parties++ {
			split := SplitCredits(supply, parties)
			if f := first(supply, parties); f != split[0] {
				t.Fatalf("supply %d over %d parties: closed form %d, first split share %d", supply, parties, f, split[0])
			}
			if l := last(supply, parties); l != split[parties-1] {
				t.Fatalf("supply %d over %d parties: closed form %d, last split share %d", supply, parties, l, split[parties-1])
			}
		}
	}

	for _, supply := range []int{1, 7, 16, 64} {
		_, b := newBroker(t, supply, nil)
		for parties := 2; parties <= 1501; parties++ {
			b.Enqueue(1) // never dispatched: the environment does not run
			if got, want := b.FairShare(), SplitCredits(supply, parties)[0]; got != want {
				t.Fatalf("supply %d, %d parties: FairShare %d, first split share %d", supply, parties, got, want)
			}
		}
		if allocs := testing.AllocsPerRun(100, func() { b.FairShare() }); allocs > 0 {
			t.Errorf("supply %d: FairShare with %d leases queued allocates %.1f/op, want 0", supply, b.Waiting(), allocs)
		}
	}
}
