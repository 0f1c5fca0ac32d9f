package broker

import (
	"testing"

	"pioqo/internal/obs"
	"pioqo/internal/sim"
)

// fixedModel is a DepthModel with a constant beneficial depth.
type fixedModel int

func (m fixedModel) MaxBeneficialDepth(band int64) int { return int(m) }

func newBroker(t *testing.T, total int, mut func(*Config)) (*sim.Env, *Broker) {
	t.Helper()
	env := sim.NewEnv(1)
	cfg := Config{Env: env, Model: fixedModel(total), Band: 1 << 20}
	if mut != nil {
		mut(&cfg)
	}
	return env, New(cfg)
}

func TestSplitCreditsDistributesRemainder(t *testing.T) {
	cases := []struct {
		total, n int
		want     []int
	}{
		{16, 3, []int{6, 5, 5}},
		{16, 4, []int{4, 4, 4, 4}},
		{7, 3, []int{3, 2, 2}},
		{2, 5, []int{1, 1, 1, 1, 1}}, // floor at 1 when parties outnumber credits
		{0, 2, []int{1, 1}},
	}
	for _, c := range cases {
		got := SplitCredits(c.total, c.n)
		if len(got) != len(c.want) {
			t.Fatalf("SplitCredits(%d, %d) = %v, want %v", c.total, c.n, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("SplitCredits(%d, %d) = %v, want %v", c.total, c.n, got, c.want)
				break
			}
		}
	}
	if SplitCredits(10, 0) != nil {
		t.Error("SplitCredits with 0 parties should be nil")
	}
}

func TestSoleQueryGetsUnboundedLease(t *testing.T) {
	env, b := newBroker(t, 16, nil)
	l := b.Enqueue(0)
	env.Run()
	if !l.admitted {
		t.Fatal("sole query not admitted")
	}
	if l.Budget() != 0 {
		t.Errorf("sole query budget = %d, want 0 (unbounded)", l.Budget())
	}
	if l.Wait() != 0 {
		t.Errorf("sole query waited %v", l.Wait())
	}
	if b.InUse() != 0 {
		t.Errorf("unbounded lease debited %d credits", b.InUse())
	}
	l.Release()
	env.Run()
	if b.Active() != 0 {
		t.Errorf("%d active leases after release", b.Active())
	}
}

func TestDispatchGrantsWholeDemandsInOrder(t *testing.T) {
	env, b := newBroker(t, 16, nil)
	var leases []*Lease
	for i := 0; i < 8; i++ {
		leases = append(leases, b.Enqueue(4))
	}
	env.Run()
	// 16 credits admit the first four demand-4 queries with 4 each —
	// admission control queues the rest instead of starving all eight at 2.
	for i, l := range leases[:4] {
		if !l.admitted || l.Budget() != 4 {
			t.Fatalf("lease %d: admitted=%v budget=%d, want 4", i, l.admitted, l.Budget())
		}
	}
	for i, l := range leases[4:] {
		if l.admitted {
			t.Fatalf("lease %d admitted with no free credits", 4+i)
		}
	}
	if b.InUse() != 16 || b.Waiting() != 4 {
		t.Fatalf("in-use=%d waiting=%d, want 16 and 4", b.InUse(), b.Waiting())
	}
	// Releasing one query frees 4 credits — exactly one more admission.
	leases[0].Release()
	env.Run()
	if !leases[4].admitted || leases[4].Budget() != 4 {
		t.Errorf("lease 4 after release: admitted=%v budget=%d", leases[4].admitted, leases[4].Budget())
	}
	if leases[5].admitted {
		t.Error("lease 5 admitted beyond the freed credits")
	}
}

func TestLastSurvivorRebrokeredUnbounded(t *testing.T) {
	env, b := newBroker(t, 16, nil)
	var leases []*Lease
	for i := 0; i < 5; i++ {
		leases = append(leases, b.Enqueue(4))
	}
	env.Run()
	// Four admitted at 4 each, the fifth queued. All four release before
	// the next dispatch: the survivor is now a sole query on an idle broker
	// and gets an unbounded lease — not the batch-start 16/5 split.
	for _, l := range leases[:4] {
		l.Release()
	}
	env.Run()
	last := leases[4]
	if !last.admitted {
		t.Fatal("survivor never admitted")
	}
	if last.Budget() != 0 {
		t.Errorf("survivor budget = %d, want 0 (unbounded)", last.Budget())
	}
}

func TestDemandCapsGrant(t *testing.T) {
	env, b := newBroker(t, 32, nil)
	b.Enqueue(8)
	l := b.Enqueue(2) // second query's plan was priced at 2 credits
	env.Run()
	if !l.admitted {
		t.Fatal("not admitted")
	}
	if l.Budget() != 2 {
		t.Errorf("budget = %d, want demand cap 2", l.Budget())
	}
	if b.InUse() != 10 {
		t.Errorf("in-use = %d, want 10: credits beyond the demands stay free", b.InUse())
	}
}

func TestWorkerExitReclaimsProportionally(t *testing.T) {
	env, b := newBroker(t, 16, nil)
	a := b.Enqueue(8)
	c := b.Enqueue(8)
	env.Run()
	if a.Budget() != 8 || c.Budget() != 8 {
		t.Fatalf("budgets %d/%d, want 8/8", a.Budget(), c.Budget())
	}
	for i := 0; i < 4; i++ {
		a.StartWorker()
	}
	waiter := b.Enqueue(4)
	env.Run()
	if waiter.admitted {
		t.Fatal("third query admitted with no free credits")
	}
	// Half of a's workers exit: half its 8 credits come home, the waiter's
	// whole demand of 4.
	a.EndWorker()
	a.EndWorker()
	env.Run()
	if !waiter.admitted {
		t.Fatal("worker exits did not re-dispatch the queue")
	}
	if waiter.Budget() != 4 {
		t.Errorf("re-brokered budget = %d, want 4", waiter.Budget())
	}
	a.EndWorker()
	a.EndWorker()
	a.Release()
	c.Release()
	waiter.Release()
	env.Run()
	if b.InUse() != 0 {
		t.Errorf("credits leaked: in-use = %d after all releases", b.InUse())
	}
}

func TestAdmitBlocksUntilGranted(t *testing.T) {
	env, b := newBroker(t, 2, nil) // one credit each: two admitted, one queued
	leases := []*Lease{b.Enqueue(1), b.Enqueue(1), b.Enqueue(1)}
	done := 0
	for _, l := range leases {
		l := l
		env.Go("q", func(p *sim.Proc) {
			l.Admit(p)
			p.Sleep(10 * sim.Microsecond)
			done++
			l.Release()
		})
	}
	env.Run()
	if done != 3 {
		t.Fatalf("%d queries completed, want 3", done)
	}
	third := leases[2]
	if third.Wait() != 10*sim.Microsecond {
		t.Errorf("queued query waited %v, want 10us (a release)", third.Wait())
	}
	if b.InUse() != 0 || b.Waiting() != 0 {
		t.Errorf("in-use=%d waiting=%d after drain", b.InUse(), b.Waiting())
	}
}

func TestFeedbackSlackExtendsSupply(t *testing.T) {
	var env *sim.Env
	var b *Broker
	env, b = newBroker(t, 16, func(c *Config) {
		c.DepthProbe = func() float64 { return 0 } // device never sees depth
	})
	a := b.Enqueue(8)
	c := b.Enqueue(8)
	var waiter *Lease
	env.Go("late", func(p *sim.Proc) {
		p.Sleep(100 * sim.Microsecond)
		waiter = b.Enqueue(4)
		waiter.Admit(p)
	})
	env.Run()
	// The probe reports zero sustained depth over a 100us window against 16
	// credits on loan: the broker extends slack (capped at total/4 = 4) and
	// admits the demand-4 waiter instead of stalling it behind idle credit.
	if waiter == nil || !waiter.admitted {
		t.Fatal("device feedback did not unblock the waiter")
	}
	if waiter.Budget() != 4 {
		t.Errorf("slack-funded budget = %d, want 4", waiter.Budget())
	}
	if b.slack != 4 {
		t.Errorf("slack = %d, want 4", b.slack)
	}
	// Releases retire the slack before credits recirculate.
	a.Release()
	c.Release()
	waiter.Release()
	env.Run()
	if b.slack != 0 || b.free != b.total {
		t.Errorf("slack=%d free=%d after drain, want 0 and %d", b.slack, b.free, b.total)
	}
}

func TestInstrumentsPublish(t *testing.T) {
	env := sim.NewEnv(1)
	reg := obs.NewRegistry(env)
	b := New(Config{Env: env, Model: fixedModel(8), Band: 1, Obs: reg})
	l1 := b.Enqueue(4)
	l2 := b.Enqueue(4)
	env.Run()
	if got := reg.Counter(obs.MetricBrokerAdmissions).Value(); got != 2 {
		t.Errorf("admissions = %d, want 2", got)
	}
	if got := reg.Gauge(obs.MetricBrokerCreditsTotal).Value(); got != 8 {
		t.Errorf("credits_total = %v, want 8", got)
	}
	if got := reg.Gauge(obs.MetricBrokerCreditsInUse).Value(); got != 8 {
		t.Errorf("credits_in_use = %v, want 8", got)
	}
	l1.Release()
	l2.Release()
	if got := reg.Gauge(obs.MetricBrokerCreditsInUse).Value(); got != 0 {
		t.Errorf("credits_in_use = %v after drain, want 0", got)
	}
}

func TestPoolReservationProportionalToGrant(t *testing.T) {
	env, b := newBroker(t, 16, func(c *Config) { c.PoolPages = 1024 })
	a := b.Enqueue(8)
	c := b.Enqueue(8)
	env.Run()
	if a.PoolPages() != 512 || c.PoolPages() != 512 {
		t.Errorf("pool reservations %d/%d, want 512/512", a.PoolPages(), c.PoolPages())
	}
	a.Release()
	c.Release()
	sole := b.Enqueue(0)
	env.Run()
	if sole.PoolPages() != 0 {
		t.Errorf("unbounded lease reserved %d pages, want 0 (whole pool)", sole.PoolPages())
	}
}

// TestAdmitSharedBypassesQueue exercises the shared-work admission path: a
// query joining a live circulating scan issues no device reads of its own,
// so it is admitted out of turn with zero credits — ahead of queries still
// waiting for queue-depth budget — and its release disturbs nothing.
func TestAdmitSharedBypassesQueue(t *testing.T) {
	env := sim.NewEnv(1)
	reg := obs.NewRegistry(env)
	b := New(Config{Env: env, Model: fixedModel(8), Band: 1 << 20,
		PoolPages: 4096, Obs: reg})

	// Saturate the credit supply so the queue backs up.
	holders := []*Lease{b.Enqueue(0), b.Enqueue(0), b.Enqueue(0)}
	env.Run()
	waiter := b.Enqueue(0) // blocked: all credits out on loan
	shared := b.EnqueueQuery(0, 42)
	env.Run()
	if waiter.admitted {
		t.Fatal("setup broken: waiter admitted with supply exhausted")
	}
	if shared.admitted {
		t.Fatal("setup broken: shared lease admitted before AdmitShared")
	}

	inUse, poolInUse := b.InUse(), b.PoolInUse()
	b.AdmitShared(shared)
	if !shared.admitted || !shared.Shared() {
		t.Fatalf("AdmitShared: admitted=%v shared=%v", shared.admitted, shared.Shared())
	}
	if !shared.grant.Fired() {
		t.Error("shared grant did not fire immediately")
	}
	if shared.Budget() != 0 || shared.PoolPages() != 0 {
		t.Errorf("shared lease holds budget=%d pool=%d, want 0/0",
			shared.Budget(), shared.PoolPages())
	}
	if b.InUse() != inUse || b.PoolInUse() != poolInUse {
		t.Errorf("shared admission moved credits: in_use %d→%d pool %d→%d",
			inUse, b.InUse(), poolInUse, b.PoolInUse())
	}
	if waiter.admitted {
		t.Error("credit-bound waiter admitted by the shared admission")
	}
	if got := reg.Counter(obs.MetricBrokerSharedAdmissions).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", obs.MetricBrokerSharedAdmissions.Name(), got)
	}

	// Worker lifecycle and release on a zero-credit lease reclaim nothing:
	// the shared query's departure frees no credits, so the waiter stays
	// queued until a real credit holder releases.
	shared.StartWorker()
	shared.EndWorker()
	shared.Release()
	env.Run()
	if waiter.admitted {
		t.Error("waiter admitted by a zero-credit release")
	}
	for _, h := range holders {
		h.Release()
	}
	env.Run()
	if !waiter.admitted {
		t.Error("waiter still queued after the credit holders released")
	}
	waiter.Release()
	env.Run()
	if b.InUse() != 0 || b.PoolInUse() != 0 || b.Active() != 0 {
		t.Errorf("after all releases: in_use=%d pool=%d active=%d",
			b.InUse(), b.PoolInUse(), b.Active())
	}
}

func TestLeaseGrowFromFreeCredits(t *testing.T) {
	env, b := newBroker(t, 16, func(c *Config) { c.PoolPages = 1600 })
	// Two contending demand-8 queries split the supply 8/8; one leaving
	// frees its half for the survivor to re-lease mid-flight.
	l1 := b.Enqueue(8)
	l2 := b.Enqueue(8)
	env.Run()
	if l1.Budget() != 8 {
		t.Fatalf("budget = %d, want its demand 8", l1.Budget())
	}
	pool0 := l1.PoolPages()
	l2.Release()
	env.Run()
	got := l1.Grow(4)
	if got != 4 {
		t.Fatalf("Grow(4) granted %d, want 4 (freed credits available)", got)
	}
	if b.InUse() != l1.Budget() {
		t.Fatalf("credits in use %d != sole lease's grant %d", b.InUse(), l1.Budget())
	}
	if l1.PoolPages() <= pool0 {
		t.Fatalf("pool reservation %d did not grow with the grant (was %d)",
			l1.PoolPages(), pool0)
	}
	l1.Release()
	env.Run()
	if b.InUse() != 0 || b.PoolInUse() != 0 {
		t.Fatalf("leak after release: credits=%d pool=%d", b.InUse(), b.PoolInUse())
	}
}

// TestLeaseGrowsPastItsDemand: an adaptive query is admitted at the depth
// its plan was priced at and grows past it through the lease, up to the
// credits sitting free.
func TestLeaseGrowsPastItsDemand(t *testing.T) {
	env, b := newBroker(t, 16, nil)
	l1 := b.Enqueue(2)
	l2 := b.Enqueue(4)
	env.Run()
	if l1.Budget() != 2 {
		t.Fatalf("budget = %d, want demand 2", l1.Budget())
	}
	if got := l1.Grow(4); got != 4 || l1.Budget() != 6 {
		t.Fatalf("Grow(4) past demand 2 granted %d (budget %d), want 4 (budget 6)", got, l1.Budget())
	}
	if got := l1.Grow(100); got != 6 || b.InUse() != 16 {
		t.Fatalf("Grow(100) granted %d with 6 free (in-use %d), want 6 (16)", got, b.InUse())
	}
	l1.Release()
	l2.Release()
	env.Run()
	if b.InUse() != 0 {
		t.Errorf("credits leaked: in-use = %d after all releases", b.InUse())
	}
}

func TestLeaseGrowDeniedWhileQueueWaits(t *testing.T) {
	env, b := newBroker(t, 8, nil)
	// Two leases hold 6 of 8 credits; a third asks for 4 and queues, so the
	// 2 free credits are its, not a running lease's to grow into.
	l1 := b.Enqueue(4)
	l2 := b.Enqueue(2)
	env.Run()
	l3 := b.Enqueue(4)
	env.Run()
	if l1.Budget() != 4 || len(b.queue) == 0 || b.InUse() != 6 {
		t.Fatalf("setup: budget=%d queue=%d in-use=%d, want 4, a waiter and 6",
			l1.Budget(), len(b.queue), b.InUse())
	}
	if got := l1.Grow(2); got != 0 {
		t.Fatalf("Grow granted %d with a query waiting in the queue, want 0", got)
	}
	l1.Release()
	l2.Release()
	l3.Release()
	env.Run()
}

// TestDemandOneLeasesAdmitTogether: forty one-credit queries (serial point
// lookups) on a supply of 32 are admitted 32 at once, each at its one
// credit, and the other eight as credits come home. An adaptive lease
// queued behind them, priced at 16, waits for all 16 and still grows past
// them once credits are free.
func TestDemandOneLeasesAdmitTogether(t *testing.T) {
	env, b := newBroker(t, 32, func(c *Config) { c.PoolPages = 3200 })
	var leases []*Lease
	for i := 0; i < 40; i++ {
		leases = append(leases, b.Enqueue(1))
	}
	adaptive := b.Enqueue(16)
	env.Run()
	for i, l := range leases[:32] {
		if !l.admitted || l.Budget() != 1 || l.PoolPages() != 100 {
			t.Fatalf("lease %d: admitted=%v budget=%d pool=%d, want 1 credit and 100 pages",
				i, l.admitted, l.Budget(), l.PoolPages())
		}
	}
	if b.InUse() != 32 || b.Waiting() != 9 {
		t.Fatalf("in-use=%d waiting=%d, want 32 and 9", b.InUse(), b.Waiting())
	}

	for _, l := range leases[:8] {
		l.Release()
	}
	env.Run()
	for i, l := range leases[32:] {
		if !l.admitted || l.Budget() != 1 {
			t.Fatalf("lease %d after 8 releases: admitted=%v budget=%d, want 1", 32+i, l.admitted, l.Budget())
		}
	}
	if adaptive.admitted {
		t.Fatal("adaptive lease admitted with no free credits")
	}

	for _, l := range leases[8:23] {
		l.Release()
	}
	env.Run()
	if adaptive.admitted {
		t.Fatal("adaptive lease admitted at 15 of its 16 credits")
	}
	leases[23].Release()
	env.Run()
	if !adaptive.admitted || adaptive.Budget() != 16 {
		t.Fatalf("adaptive lease: admitted=%v budget=%d, want its whole demand of 16",
			adaptive.admitted, adaptive.Budget())
	}
	for _, l := range leases[24:] {
		l.Release()
	}
	env.Run()
	if got := adaptive.Grow(8); got != 8 || adaptive.Budget() != 24 {
		t.Fatalf("Grow(8) granted %d (budget %d), want 8 (budget 24)", got, adaptive.Budget())
	}
	adaptive.Release()
	env.Run()
	if b.InUse() != 0 || b.PoolInUse() != 0 || b.Active() != 0 {
		t.Errorf("after all releases: in_use=%d pool=%d active=%d, want 0/0/0",
			b.InUse(), b.PoolInUse(), b.Active())
	}
}

// TestLeaseBehindTheHeadKeepsItsFloor queues a two-credit lease between
// one-credit ones with two credits free. The first takes one; the
// two-credit lease is not split down to the one left, it waits at the head
// for both, and the lease behind it waits its turn even though a credit it
// could use sits free.
func TestLeaseBehindTheHeadKeepsItsFloor(t *testing.T) {
	env, b := newBroker(t, 8, nil)
	b.Enqueue(5)
	holder := b.Enqueue(1)
	env.Run()
	if b.InUse() != 6 {
		t.Fatalf("setup: %d credits on loan, want 6", b.InUse())
	}
	first, two, last := b.Enqueue(1), b.Enqueue(2), b.Enqueue(1)
	env.Run()
	if first.Budget() != 1 || two.admitted || last.admitted {
		t.Fatalf("first budget %d, two admitted=%v, last admitted=%v; want 1, false, false",
			first.Budget(), two.admitted, last.admitted)
	}
	holder.Release()
	env.Run()
	if !two.admitted || two.Budget() != 2 {
		t.Errorf("after a release: admitted=%v budget=%d, want its whole 2", two.admitted, two.Budget())
	}
	if last.admitted {
		t.Error("the lease behind was admitted with no credit free")
	}
	first.Release()
	env.Run()
	if !last.admitted || last.Budget() != 1 {
		t.Errorf("after a second release: admitted=%v budget=%d, want 1", last.admitted, last.Budget())
	}
}

// TestHeadWaitsForItsWholeDemand: a demand-5 head with 3 credits free is
// not admitted at 3; it waits until 5 are free and is granted all 5, so the
// plan it was priced at is the plan it runs.
func TestHeadWaitsForItsWholeDemand(t *testing.T) {
	env, b := newBroker(t, 8, nil)
	b.Enqueue(3)
	holder := b.Enqueue(2)
	env.Run()
	head := b.Enqueue(5)
	env.Run()
	if head.admitted {
		t.Fatalf("demand-5 head admitted at %d with 3 credits free", head.Budget())
	}
	holder.Release()
	env.Run()
	if !head.admitted || head.Budget() != 5 {
		t.Errorf("after a release: admitted=%v budget=%d, want its whole demand of 5",
			head.admitted, head.Budget())
	}
}
