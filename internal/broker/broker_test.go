package broker

import (
	"math"
	"math/rand"
	"testing"

	"pioqo/internal/cost"
	"pioqo/internal/obs"
	"pioqo/internal/sim"
)

// fixedModel is a DepthModel with a constant beneficial depth and a flat
// band curve: every read costs the same, so grants go by waiters alone.
type fixedModel int

func (m fixedModel) MaxBeneficialDepth(band int64) int      { return int(m) }
func (m fixedModel) PageCost(band int64, depth int) float64 { return 100 }
func (m fixedModel) Bands() []int64                         { return []int64{1} }

// seekModel is a DepthModel whose page price rises with the band: 100 µs
// plus 1 µs a page of distance, at every depth.
type seekModel int

func (m seekModel) MaxBeneficialDepth(band int64) int      { return int(m) }
func (m seekModel) PageCost(band int64, depth int) float64 { return 100 + float64(band) }
func (m seekModel) Bands() []int64                         { return []int64{1, 1 << 20} }

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

// TestDemandOneLeasesAdmitTogether: forty one-credit queries (serial point
// lookups) on a supply of 32 are admitted 32 at once, each at its one
// credit, and the other eight as credits come home. A lease queued behind
// them, priced at 16, waits for all 16.
func TestDemandOneLeasesAdmitTogether(t *testing.T) {
	env, b := newBroker(t, 32, func(c *Config) { c.PoolPages = 3200 })
	var leases []*Lease
	for i := 0; i < 40; i++ {
		leases = append(leases, b.Enqueue(1))
	}
	deep := b.Enqueue(16)
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
	if deep.admitted {
		t.Fatal("deep lease admitted with no free credits")
	}

	for _, l := range leases[8:23] {
		l.Release()
	}
	env.Run()
	if deep.admitted {
		t.Fatal("deep lease admitted at 15 of its 16 credits")
	}
	leases[23].Release()
	env.Run()
	if !deep.admitted || deep.Budget() != 16 {
		t.Fatalf("deep lease: admitted=%v budget=%d, want its whole demand of 16",
			deep.admitted, deep.Budget())
	}
	for _, l := range leases[24:] {
		l.Release()
	}
	deep.Release()
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

// TestMostWaitedLeaseGoesFirst: five one-credit queries queue behind a
// two-credit holder; the holder, at the head, is not passed by any of them,
// since none leaves it room. Then two park on a page five queries want, one
// on a page three want, one on a page only it wants, and one on none. Each
// free credit goes to the lease whose grant releases the most waiters: the
// two five-waiter leases first, in submit order, then the three-waiter one;
// the lease parked alone and the unparked one count one each and keep their
// submit order.
func TestMostWaitedLeaseGoesFirst(t *testing.T) {
	env, b := newBroker(t, 2, nil)
	hold := b.Enqueue(2)
	one, three, five := 1, 3, 5
	parked := []*int{&one, nil, &five, &five, &three}
	var ls []*Lease
	var order []int
	for i := range parked {
		l := b.Enqueue(1)
		l.OnAdmit(func() { order = append(order, i) })
		ls = append(ls, l)
	}
	ls[2].Park(&five, 0)
	env.Run()
	if !hold.Admitted() || len(order) != 0 {
		t.Fatalf("holder admitted %v, %d of the queued granted; want the holder alone", hold.Admitted(), len(order))
	}
	for i, w := range parked {
		ls[i].Park(w, int64(i))
	}
	hold.Release()
	env.Run()
	for _, i := range []int{2, 4, 3, 0, 1} {
		ls[i].Release()
		env.Run()
	}
	if want := []int{2, 3, 4, 0, 1}; !equalInts(order, want) {
		t.Errorf("grant order %v, want %v", order, want)
	}
}

// TestDeepHeadIsNeverOvertakenIntoASplit: a lease parked on a page nine
// queries want goes ahead of the head when both fit. A deep lease at the
// head waits for its whole demand, and no lease behind it is granted
// meanwhile, however many queries wait on its page, nor once the head's
// demand is free.
func TestDeepHeadIsNeverOvertakenIntoASplit(t *testing.T) {
	env, b := newBroker(t, 4, nil)
	nine := 9
	a := b.Enqueue(3)
	deep := b.Enqueue(4)
	small := b.Enqueue(1)
	small.Park(&nine, 0)
	env.Run()
	if !a.Admitted() || !small.Admitted() || deep.Admitted() {
		t.Fatalf("admitted a %v, small %v, deep %v; want a and small, which fit beside each other",
			a.Admitted(), small.Admitted(), deep.Admitted())
	}
	late := b.Enqueue(1)
	late.Park(&nine, 0)
	small.Release()
	env.Run()
	if late.Admitted() {
		t.Fatal("a one-credit lease overtook the deep head waiting for its four")
	}
	a.Release()
	env.Run()
	if !deep.Admitted() || deep.Budget() != 4 || late.Admitted() {
		t.Fatalf("deep admitted %v with %d credits, late admitted %v; want deep whole, late waiting",
			deep.Admitted(), deep.Budget(), late.Admitted())
	}
	deep.Release()
	env.Run()
	if !late.Admitted() {
		t.Fatal("late lease never admitted")
	}
	late.Release()
	env.Run()
	if b.InUse() != 0 {
		t.Errorf("in-use = %d after all releases", b.InUse())
	}
}

// TestGrantOnAFullyReservedPoolReservesNothing: a lease holding the whole
// supply reserves the whole pool; a query granted a slack credit beside it
// finds no page left and reserves none — a bounded lease with no pages,
// which the executor budgets as such. As the holder's workers exit, the
// pages its grant reserved follow its credits home.
func TestGrantOnAFullyReservedPoolReservesNothing(t *testing.T) {
	env, b := newBroker(t, 4, func(c *Config) {
		c.PoolPages = 400
		c.DepthProbe = func() float64 { return 0 } // the device sits idle
	})
	a := b.Enqueue(4)
	q := b.Enqueue(1)
	env.Run()
	if a.Budget() != 4 || a.PoolPages() != 400 || q.Admitted() {
		t.Fatalf("holder %d credits, %d pages; queued admitted %v", a.Budget(), a.PoolPages(), q.Admitted())
	}
	a.StartWorker()
	a.StartWorker()
	env.Schedule(sim.Millisecond, b.scheduleDispatch)
	env.Run() // the probe shows the loaned depth idle: slack funds q
	if !q.Admitted() || q.Budget() != 1 || q.PoolPages() != 0 {
		t.Fatalf("queued lease admitted %v with %d credits and %d pages; want 1 credit, 0 pages",
			q.Admitted(), q.Budget(), q.PoolPages())
	}
	if b.PoolInUse() != 400 {
		t.Errorf("%d pages reserved, want the holder's 400", b.PoolInUse())
	}
	a.EndWorker()
	if a.PoolPages() != 400 || b.PoolInUse() != 200 {
		t.Errorf("after half the holder's workers exit: granted %d pages, %d still reserved; want 400 and 200",
			a.PoolPages(), b.PoolInUse())
	}
	a.EndWorker()
	a.Release()
	q.Release()
	env.Run()
	if b.PoolInUse() != 0 || b.InUse() != 0 {
		t.Errorf("%d pages and %d credits left after all releases", b.PoolInUse(), b.InUse())
	}
}

// TestEqualWaitersSweepFromTheLastGrant: under a band curve that rises
// with distance, one-waiter leases parked across the device are granted
// nearest-first from the last granted page — the device sweeps 600, 650,
// 700, 1000, 320, 300 — not in submit order.
func TestEqualWaitersSweepFromTheLastGrant(t *testing.T) {
	env, b := newBroker(t, 1, func(c *Config) { c.Model = seekModel(1) })
	one := 1
	first := b.Enqueue(1)
	first.Park(&one, 600)
	env.Run() // a sole query: granted unbounded, from page 600
	var ls []*Lease
	var order []int
	for i, at := range []int64{700, 300, 1000, 320, 650} {
		l, w := b.Enqueue(1), 1
		l.Park(&w, at)
		l.OnAdmit(func() { order = append(order, i) })
		ls = append(ls, l)
	}
	env.Run()
	for range ls {
		if len(order) == 0 {
			break
		}
		ls[order[len(order)-1]].Release()
		env.Run()
	}
	if want := []int{4, 0, 2, 3, 1}; !equalInts(order, want) {
		t.Errorf("grant order %v, want %v: nearest the last grant first", order, want)
	}
	first.Release()
	env.Run()
	if b.InUse() != 0 || b.Waiting() != 0 {
		t.Errorf("%d credits in use, %d waiting after all releases", b.InUse(), b.Waiting())
	}
}

// TestWaitersAgainstDistance: a page three queries want, far from the last
// grant, against a page one wants, near it. The grant goes to the higher
// waiters ÷ price, whichever of the two is queued first: the near page at
// 200 µs (1/200) beats the far one at 1 000 µs (3/1000), and the far one at
// 500 µs (3/500) beats the near one.
func TestWaitersAgainstDistance(t *testing.T) {
	for _, c := range []struct {
		name  string
		farAt int64
		want  string
	}{
		{"distance wins", 900, "near"},
		{"waiters win", 400, "far"},
	} {
		t.Run(c.name, func(t *testing.T) {
			env, b := newBroker(t, 1, func(cfg *Config) { cfg.Model = seekModel(1) })
			first := b.Enqueue(1)
			env.Run() // unbounded, parked on nothing: the last grant stays at page 0
			// The loser is queued first, so the winner passes the head.
			loser, winner := b.Enqueue(1), b.Enqueue(1)
			near, far := winner, loser
			if c.want == "far" {
				near, far = loser, winner
			}
			one, three := 1, 3
			near.Park(&one, 100)
			far.Park(&three, c.farAt)
			env.Run()
			if !winner.Admitted() || loser.Admitted() {
				t.Fatalf("near admitted %v, far admitted %v; want %s alone", near.Admitted(), far.Admitted(), c.want)
			}
			for _, l := range []*Lease{first, near, far} {
				l.Release()
			}
			env.Run()
		})
	}
}

// TestPrunedPickIsTheArgmax: on random queues — random demands, waiters,
// pages and parked-or-not, random prices on a random band grid that need
// not rise with the band, random depths in use, ties in every term — the
// pruned scan picks exactly the lease an exhaustive scan of every
// candidate's score picks, the earliest of equals, with the cheapest band
// price found by pricing every band.
func TestPrunedPickIsTheArgmax(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	ties := 0
	for trial := 0; trial < 400; trial++ {
		bands := []int64{1}
		for len(bands) < 4 {
			bands = append(bands, bands[len(bands)-1]+1+rng.Int63n(1500))
		}
		depths := []int{1, 2, 4, 8, 16}
		rows := make([][]float64, len(depths))
		for i := range rows {
			for range bands {
				rows[i] = append(rows[i], float64(100*(1+rng.Intn(4))))
			}
		}
		model := cost.NewQDTT(bands, depths, rows)
		b := New(Config{Env: sim.NewEnv(1), Model: model, Band: bands[len(bands)-1]})
		b.free = b.total - rng.Intn(20) // credits in use: the depth priced is one more
		b.last = rng.Int63n(9) * 512
		supply := 4
		for n := 1 + rng.Intn(12); len(b.queue) < n; {
			l := &Lease{b: b, demand: 1 + rng.Intn(3)}
			if rng.Intn(4) > 0 {
				w := 1 + rng.Intn(3)
				l.Park(&w, rng.Int63n(9)*512)
			}
			b.queue = append(b.queue, l)
		}
		head := b.queue[0].need(supply)
		avail := head + rng.Intn(supply-head+1)

		depth := b.InUse() + 1
		floor := math.Inf(1)
		for band := int64(1); band <= bands[len(bands)-1]+1; band++ {
			floor = min(floor, model.PageCost(band, depth))
		}
		score := func(l *Lease) float64 {
			if l.parked == nil {
				return 1 / floor
			}
			return float64(l.finishes()) / model.PageCost(max(1, abs(l.at-b.last)), depth)
		}
		want, best, tied := 0, score(b.queue[0]), false
		for i, l := range b.queue[1:] {
			need := l.need(supply)
			if l.parked == nil || need > avail || (need < head && need+head > avail) {
				continue
			}
			switch s := score(l); {
			case s > best:
				want, best, tied = i+1, s, false
			case s == best:
				tied = true
			}
		}
		if tied {
			ties++
		}
		if got := b.pick(supply, avail, head); got != want {
			t.Fatalf("trial %d: pruned scan picks %d, the exhaustive argmax is %d", trial, got, want)
		}
	}
	if ties < 40 {
		t.Errorf("only %d of 400 trials had a tied best score; the ties are not exercised", ties)
	}
}

func abs(n int64) int64 {
	if n < 0 {
		return -n
	}
	return n
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
