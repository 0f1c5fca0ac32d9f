package adapt

import (
	"testing"

	"pioqo/internal/buffer"
	"pioqo/internal/device"
	"pioqo/internal/disk"
	"pioqo/internal/sim"
)

// fakeGrower grants up to its remaining credits. Its Budget of 0 makes its
// signals budget against the whole pool.
type fakeGrower struct {
	avail   int
	granted int
}

func (g *fakeGrower) Budget() int    { return 0 }
func (g *fakeGrower) PoolPages() int { return 0 }

func (g *fakeGrower) Grow(n int) int {
	if n > g.avail {
		n = g.avail
	}
	g.avail -= n
	g.granted += n
	return n
}

// drive runs fn inside a proc so Tick sees advancing virtual time.
func drive(t *testing.T, fn func(env *sim.Env, p *sim.Proc)) {
	t.Helper()
	env := sim.NewEnv(1)
	env.Go("drive", func(p *sim.Proc) { fn(env, p) })
	env.Run()
}

// tickUntil advances virtual time in interval-sized steps until the
// controller's target changes or maxSteps pass.
func tickUntil(p *sim.Proc, c *Controller, maxSteps int) int {
	start := c.Target()
	for i := 0; i < maxSteps; i++ {
		p.Sleep(interval)
		if got := c.Tick(c.Target()); got != start {
			return got
		}
	}
	return c.Target()
}

// curve prices degrees 1…32 at 1000 µs over the degree up to knee and flat
// beyond it: the shape of a device that stops turning depth into speed.
func curve(knee int) []Price {
	var ps []Price
	for d := 1; d <= 32; d *= 2 {
		ps = append(ps, Price{Degree: d, Micros: 1000 / float64(min(d, knee))})
	}
	return ps
}

func TestControllerGrowsTowardCap(t *testing.T) {
	drive(t, func(env *sim.Env, p *sim.Proc) {
		g := &fakeGrower{avail: 64}
		// Deeper keeps paying up to 32, but Max caps the fleet at 8.
		c := NewController(Config{Env: env, Degree: 1, Max: 8, Prices: curve(32), Lease: g})
		if got := tickUntil(p, c, 10); got != 8 {
			t.Fatalf("target = %d, want cap 8", got)
		}
		if g.granted != 7 {
			t.Fatalf("granted %d credits, want every worker above the plan's 1 leased (7)", g.granted)
		}
	})
}

func TestControllerGrowthBoundedByLease(t *testing.T) {
	drive(t, func(env *sim.Env, p *sim.Proc) {
		g := &fakeGrower{avail: 2} // broker can only re-lease 2 credits
		c := NewController(Config{Env: env, Degree: 2, Max: 16, Prices: curve(16), Lease: g})
		for step := 0; step < 20; step++ {
			p.Sleep(interval)
			c.Tick(c.Target())
		}
		if c.Target() != 4 {
			t.Fatalf("target = %d, want the plan's 2 plus the 2 leased", c.Target())
		}
	})
}

// The fleet moves only to a degree priced at least cost.MinGain below the
// standing one: a 3 % gain holds, and a shallower degree that prices
// cheaper is shrunk to.
func TestControllerMovesOnlyOnAPricedGain(t *testing.T) {
	drive(t, func(env *sim.Env, p *sim.Proc) {
		g := &fakeGrower{avail: 64}
		prices := []Price{{1, 1000}, {2, 990}, {4, 980}, {8, 970}}
		c := NewController(Config{Env: env, Degree: 1, Max: 8, Prices: prices, Lease: g})
		if got := tickUntil(p, c, 10); got != 1 {
			t.Fatalf("target = %d on a 3 %% gain, want the plan's 1", got)
		}
		if g.granted != 0 {
			t.Fatalf("held controller leased %d credits", g.granted)
		}
	})
	drive(t, func(env *sim.Env, p *sim.Proc) {
		// Past depth 4 the device gains nothing and every worker's start-up
		// costs time.
		prices := []Price{{1, 1000}, {2, 500}, {4, 250}, {8, 260}, {16, 280}, {32, 300}}
		c := NewController(Config{Env: env, Degree: 32, Max: 32, Prices: prices})
		if got := tickUntil(p, c, 10); got != 4 {
			t.Fatalf("target = %d, want the cheapest degree 4", got)
		}
	})
}

func TestControllerShrinksPastBeneficialDepth(t *testing.T) {
	drive(t, func(env *sim.Env, p *sim.Proc) {
		c := NewController(Config{Env: env, Degree: 16, Max: 32, Prices: curve(32), Beneficial: 4})
		if got := tickUntil(p, c, 10); got != 4 {
			t.Fatalf("target = %d, want shed to beneficial depth 4", got)
		}
		// Deeper still prices cheaper, but not past the beneficial depth.
		if got := tickUntil(p, c, 10); got != 4 {
			t.Fatalf("target = %d, want held at beneficial depth 4", got)
		}
	})
}

func TestControllerShrinksUnderPoolPressure(t *testing.T) {
	env := sim.NewEnv(1)
	m := disk.NewManager(device.NewSSD(env, device.DefaultSSDConfig()))
	f := m.MustAllocate("t", 100)
	pool := buffer.NewPool(env, 16)
	env.Go("drive", func(p *sim.Proc) {
		// Pin most of a 16-frame pool against a share of 16.
		var hs []buffer.Handle
		for pg := int64(0); pg < 12; pg++ {
			hs = append(hs, pool.FetchPage(p, f, pg))
		}
		c := NewController(Config{
			Env: env, Pool: pool, Degree: 8, Max: 8,
		})
		got := tickUntil(p, c, 10)
		if got >= 8 {
			t.Fatalf("target = %d under pool pressure, want a shrink", got)
		}
		for _, h := range hs {
			h.Release()
		}
	})
	env.Run()
}

func TestSpeculationHitAndCancel(t *testing.T) {
	env := sim.NewEnv(1)
	m := disk.NewManager(device.NewSSD(env, device.DefaultSSDConfig()))
	f := m.MustAllocate("t", 1000)
	pool := buffer.NewPool(env, 64)
	env.Go("drive", func(p *sim.Proc) {
		c := NewController(Config{
			Env: env, Pool: pool, Degree: 1, Max: 1,
		})
		c.SpeculateRun(f, 10, 4) // pages 10..13 speculated
		if c.SpecOutstanding() != 4 {
			t.Fatalf("outstanding = %d after issue, want 4", c.SpecOutstanding())
		}
		p.Sleep(10 * sim.Millisecond) // let the reads land
		// Demand-fetch two of them: hits.
		for _, pg := range []int64{10, 11} {
			h := pool.FetchPage(p, f, pg)
			c.NoteFetch(f, pg)
			h.Release()
		}
		if c.SpecHits() != 2 {
			t.Fatalf("hits = %d, want 2", c.SpecHits())
		}
		if c.SpecOutstanding() != 2 {
			t.Fatalf("outstanding = %d after hits, want 2", c.SpecOutstanding())
		}
		c.FinishScan()
		if c.SpecOutstanding() != 0 {
			t.Fatalf("outstanding = %d after FinishScan, want 0", c.SpecOutstanding())
		}
		if pool.Pinned() != 0 {
			t.Fatalf("pool pins = %d after cancellation, want 0", pool.Pinned())
		}
		// The mispredicted pages must be gone from the pool.
		for _, pg := range []int64{12, 13} {
			if pool.Contains(f, pg) {
				t.Fatalf("canceled page %d still resident", pg)
			}
		}
	})
	env.Run()
}

func TestSpeculationBudgetGate(t *testing.T) {
	env := sim.NewEnv(1)
	m := disk.NewManager(device.NewSSD(env, device.DefaultSSDConfig()))
	f := m.MustAllocate("t", 1000)
	pool := buffer.NewPool(env, 256)
	env.Go("drive", func(p *sim.Proc) {
		c := NewController(Config{
			Env: env, Pool: pool, Degree: 1, Max: 1, SpecBudget: 6,
		})
		c.SpeculateRun(f, 0, 100)
		if c.SpecOutstanding() != 6 {
			t.Fatalf("outstanding = %d, want budget cap 6", c.SpecOutstanding())
		}
		c.SpeculateRun(f, 200, 10) // budget exhausted: no-op
		if c.SpecOutstanding() != 6 {
			t.Fatalf("outstanding = %d after over-budget offer, want 6", c.SpecOutstanding())
		}
		c.FinishScan()
	})
	env.Run()
}

func TestSpeculationConfidenceGate(t *testing.T) {
	env := sim.NewEnv(1)
	m := disk.NewManager(device.NewSSD(env, device.DefaultSSDConfig()))
	f := m.MustAllocate("t", 1000)
	pool := buffer.NewPool(env, 256)
	env.Go("drive", func(p *sim.Proc) {
		c := NewController(Config{
			Env: env, Pool: pool, Degree: 1, Max: 1, SpecBudget: 64,
		})
		// Three straight all-miss scans crater the hit rate.
		for s := 0; s < 3; s++ {
			c.SpeculateRun(f, int64(100*s), 8)
			c.FinishScan()
		}
		c.SpeculateRun(f, 500, 8)
		if c.SpecOutstanding() != 0 {
			t.Fatalf("speculation issued at confidence %.2f, want gate closed", c.confidence())
		}
	})
	env.Run()
}

// poolLease is a bounded lease with a fixed pool reservation.
type poolLease struct{ budget, pages int }

func (l poolLease) Grow(int) int   { return 0 }
func (l poolLease) Budget() int    { return l.budget }
func (l poolLease) PoolPages() int { return l.pages }

// TestBoundedLeaseWithNoPagesBudgetsNone: a lease granted on a fully
// reserved pool holds credits and no pages. Its controller budgets against
// those none — speculation at its floor — not against the whole pool, which
// only a nil or unbounded lease budgets against.
func TestBoundedLeaseWithNoPagesBudgetsNone(t *testing.T) {
	pool := buffer.NewPool(sim.NewEnv(1), 4096)
	for _, c := range []struct {
		lease        Lease
		share, specs int
	}{
		{nil, 4096, 512},
		{poolLease{budget: 0, pages: 0}, 4096, 512},
		{poolLease{budget: 4, pages: 1024}, 1024, 128},
		{poolLease{budget: 1, pages: 0}, 0, 16},
	} {
		ctl := NewController(Config{Env: sim.NewEnv(1), Pool: pool, Degree: 1, Max: 8, Lease: c.lease})
		if got, specs := ctl.share(), ctl.specBudget(); got != c.share || specs != c.specs {
			t.Errorf("lease %+v: share %d, speculation budget %d; want %d and %d", c.lease, got, specs, c.share, c.specs)
		}
	}
}
