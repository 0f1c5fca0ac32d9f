package sim

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestClockStartsAtZero(t *testing.T) {
	e := NewEnv(1)
	if e.Now() != 0 {
		t.Fatalf("Now() = %d, want 0", e.Now())
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	e := NewEnv(1)
	var woke Time
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(5 * Millisecond)
		woke = p.Now()
	})
	end := e.Run()
	if woke != Time(5*Millisecond) {
		t.Errorf("woke at %v, want 5ms", Duration(woke))
	}
	if end != woke {
		t.Errorf("Run returned %v, want %v", end, woke)
	}
}

func TestSequentialSleeps(t *testing.T) {
	e := NewEnv(1)
	var times []Time
	e.Go("p", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(Millisecond)
			times = append(times, p.Now())
		}
	})
	e.Run()
	want := []Time{Time(Millisecond), Time(2 * Millisecond), Time(3 * Millisecond)}
	for i := range want {
		if times[i] != want[i] {
			t.Errorf("wake %d at %v, want %v", i, times[i], want[i])
		}
	}
}

func TestNegativeSleepPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative sleep")
		}
	}()
	e := NewEnv(1)
	e.Go("p", func(p *Proc) { p.Sleep(-1) })
	e.Run()
}

func TestTwoProcessesInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEnv(7)
		var log []string
		e.Go("a", func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Sleep(2 * Millisecond)
				log = append(log, fmt.Sprintf("a@%v", Duration(p.Now())))
			}
		})
		e.Go("b", func(p *Proc) {
			for i := 0; i < 2; i++ {
				p.Sleep(3 * Millisecond)
				log = append(log, fmt.Sprintf("b@%v", Duration(p.Now())))
			}
		})
		e.Run()
		return log
	}
	first := run()
	for trial := 0; trial < 5; trial++ {
		got := run()
		if len(got) != len(first) {
			t.Fatalf("trial %d: %d events, want %d", trial, len(got), len(first))
		}
		for i := range first {
			if got[i] != first[i] {
				t.Fatalf("trial %d: event %d = %q, want %q", trial, i, got[i], first[i])
			}
		}
	}
}

func TestSimultaneousEventsFireInScheduleOrder(t *testing.T) {
	e := NewEnv(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(Millisecond, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d", i, v, i)
		}
	}
}

func TestCompletionWaitAfterFire(t *testing.T) {
	e := NewEnv(1)
	c := NewCompletion(e)
	var waited Time = -1
	e.Go("firer", func(p *Proc) {
		p.Sleep(Millisecond)
		c.Fire()
	})
	e.Go("waiter", func(p *Proc) {
		p.Sleep(2 * Millisecond) // fires before we wait
		p.Wait(c)
		waited = p.Now()
	})
	e.Run()
	if waited != Time(2*Millisecond) {
		t.Errorf("late waiter resumed at %v, want 2ms (immediate)", Duration(waited))
	}
	if c.FiredAt() != Time(Millisecond) {
		t.Errorf("FiredAt = %v, want 1ms", Duration(c.FiredAt()))
	}
}

func TestCompletionWaitBeforeFire(t *testing.T) {
	e := NewEnv(1)
	c := NewCompletion(e)
	var waited Time = -1
	e.Go("waiter", func(p *Proc) {
		p.Wait(c)
		waited = p.Now()
	})
	e.Go("firer", func(p *Proc) {
		p.Sleep(4 * Millisecond)
		c.Fire()
	})
	e.Run()
	if waited != Time(4*Millisecond) {
		t.Errorf("waiter resumed at %v, want 4ms", Duration(waited))
	}
}

// Waiters resume and callbacks run in the order they registered, the first
// of each — which the completion keeps in itself — ahead of the later ones
// it spills into lists, and every callback before any waiter.
func TestCompletionMultipleWaiters(t *testing.T) {
	e := NewEnv(1)
	c := NewCompletion(e)
	var order []string
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("w%d", i)
		e.Go(name, func(p *Proc) {
			c.OnFire(func() { order = append(order, "cb-"+name) })
			p.Wait(c)
			order = append(order, name)
		})
	}
	e.Go("firer", func(p *Proc) {
		p.Sleep(Millisecond)
		c.Fire()
	})
	e.Run()
	want := "cb-w0 cb-w1 cb-w2 cb-w3 cb-w4 w0 w1 w2 w3 w4"
	if got := strings.Join(order, " "); got != want {
		t.Errorf("fire order %q, want %q", got, want)
	}
}

// TestCompletionExcuse: four processes wait on one completion. Excusing the
// first and the third resumes each at once, at the excuse, with the
// completion still pending; the other two keep waiting and resume, in the
// order they came, when it fires. A process not waiting is not excused.
func TestCompletionExcuse(t *testing.T) {
	e := NewEnv(1)
	c := NewCompletion(e)
	var procs []*Proc
	var order []string
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("w%d", i)
		procs = append(procs, e.Go(name, func(p *Proc) {
			p.Wait(c)
			order = append(order, fmt.Sprintf("%s@%v fired=%v", name, p.Now(), c.Fired()))
		}))
	}
	e.Go("excuser", func(p *Proc) {
		p.Sleep(Millisecond)
		if !c.Excuse(procs[0]) || !c.Excuse(procs[2]) || c.Excuse(procs[2]) {
			t.Error("Excuse reported the wrong processes waiting")
		}
		p.Sleep(Millisecond)
		c.Fire()
	})
	e.Run()
	want := "w0@1000000 fired=false w2@1000000 fired=false w1@2000000 fired=true w3@2000000 fired=true"
	if got := strings.Join(order, " "); got != want {
		t.Errorf("resume order %q, want %q", got, want)
	}
}

// TestCompletionAllocations is the allocation gate on the rendezvous every
// device request goes through: a completion with one waiter and one callback
// allocates itself and nothing else.
func TestCompletionAllocations(t *testing.T) {
	e := NewEnv(1)
	var c *Completion
	fired := 0
	fire, callback := func() { c.Fire() }, func() { fired++ }
	e.Go("gate", func(p *Proc) {
		got := testing.AllocsPerRun(100, func() {
			c = NewCompletion(e)
			c.OnFire(callback)
			e.Schedule(Microsecond, fire)
			p.Wait(c)
		})
		if got != 1 || fired != 101 {
			t.Errorf("NewCompletion + OnFire + Wait + Fire: %v allocations (want 1), %d callbacks run (want 101)", got, fired)
		}
	})
	e.Run()
}

func TestCompletionDoubleFirePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on double fire")
		}
	}()
	e := NewEnv(1)
	c := NewCompletion(e)
	e.Go("p", func(p *Proc) {
		c.Fire()
		c.Fire()
	})
	e.Run()
}

func TestWaitAllWaitsForSlowest(t *testing.T) {
	e := NewEnv(1)
	var cs []*Completion
	for i := 1; i <= 4; i++ {
		c := NewCompletion(e)
		d := Duration(i) * Millisecond
		e.Schedule(d, c.Fire)
		cs = append(cs, c)
	}
	var done Time
	e.Go("p", func(p *Proc) {
		p.WaitAll(cs)
		done = p.Now()
	})
	e.Run()
	if done != Time(4*Millisecond) {
		t.Errorf("WaitAll returned at %v, want 4ms", Duration(done))
	}
}

func TestWaitGroup(t *testing.T) {
	e := NewEnv(1)
	wg := NewWaitGroup(e)
	var done Time = -1
	for i := 1; i <= 3; i++ {
		wg.Add(1)
		d := Duration(i) * Millisecond
		e.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			p.Sleep(d)
			wg.Done()
		})
	}
	e.Go("waiter", func(p *Proc) {
		p.WaitFor(wg)
		done = p.Now()
	})
	e.Run()
	if done != Time(3*Millisecond) {
		t.Errorf("WaitFor returned at %v, want 3ms", Duration(done))
	}
}

func TestWaitGroupAlreadyZero(t *testing.T) {
	e := NewEnv(1)
	wg := NewWaitGroup(e)
	ran := false
	e.Go("p", func(p *Proc) {
		p.WaitFor(wg)
		ran = true
	})
	e.Run()
	if !ran {
		t.Fatal("WaitFor on zero counter did not return")
	}
}

func TestWaitGroupNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative counter")
		}
	}()
	e := NewEnv(1)
	wg := NewWaitGroup(e)
	wg.Done()
}

func TestResourceSerializesWhenFull(t *testing.T) {
	e := NewEnv(1)
	r := NewResource(e, "core", 1)
	var ends []Time
	for i := 0; i < 3; i++ {
		e.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			p.Use(r, Millisecond)
			ends = append(ends, p.Now())
		})
	}
	e.Run()
	want := []Time{Time(Millisecond), Time(2 * Millisecond), Time(3 * Millisecond)}
	for i := range want {
		if ends[i] != want[i] {
			t.Errorf("worker %d finished at %v, want %v", i, ends[i], want[i])
		}
	}
}

func TestResourceParallelismMatchesCapacity(t *testing.T) {
	// 8 workers each needing 1ms of a 4-unit resource: two waves, 2ms total.
	e := NewEnv(1)
	r := NewResource(e, "core", 4)
	for i := 0; i < 8; i++ {
		e.Go(fmt.Sprintf("w%d", i), func(p *Proc) { p.Use(r, Millisecond) })
	}
	end := e.Run()
	if end != Time(2*Millisecond) {
		t.Errorf("8 workers on 4 cores ended at %v, want 2ms", Duration(end))
	}
}

func TestResourceFIFOOrder(t *testing.T) {
	e := NewEnv(1)
	r := NewResource(e, "core", 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			p.Acquire(r)
			order = append(order, i)
			p.Sleep(Millisecond)
			r.Release()
		})
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("grant order %v, want FIFO", order)
		}
	}
}

// The wait queue is a ring that doubles when full; FIFO order must survive a
// growth that happens while the head is off zero and the ring has wrapped.
func TestResourceFIFOAcrossRingGrowth(t *testing.T) {
	e := NewEnv(1)
	r := NewResource(e, "core", 1)
	var order []int
	for i := 0; i < 12; i++ {
		var arrive Duration // 0 holds, 1-4 fill a 4-slot ring at t=0
		if i >= 5 {
			arrive = 2*Microsecond + 1 // two grants later: head is at 2
		}
		e.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			p.Sleep(arrive)
			p.Acquire(r)
			order = append(order, i)
			p.Sleep(Microsecond)
			r.Release()
		})
	}
	e.RunUntil(Time(2*Microsecond + 1))
	if r.QueueLen() != 9 {
		t.Fatalf("QueueLen = %d after the late arrivals queued, want 9", r.QueueLen())
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("grant order %v, want FIFO", order)
		}
	}
	if len(order) != 12 || r.QueueLen() != 0 || r.InUse() != 0 {
		t.Fatalf("granted %d of 12, QueueLen %d, InUse %d", len(order), r.QueueLen(), r.InUse())
	}
}

func TestResourceUtilization(t *testing.T) {
	e := NewEnv(1)
	r := NewResource(e, "core", 2)
	// One worker busy for the whole run on a 2-unit resource: 50% utilisation.
	e.Go("w", func(p *Proc) { p.Use(r, 10*Millisecond) })
	e.Run()
	if u := r.Utilization(); u < 0.49 || u > 0.51 {
		t.Errorf("utilization = %f, want ~0.5", u)
	}
}

func TestResourceOverReleasePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on over-release")
		}
	}()
	e := NewEnv(1)
	r := NewResource(e, "core", 1)
	r.Release()
}

func TestZeroCapacityResourcePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on zero capacity")
		}
	}()
	NewResource(NewEnv(1), "bad", 0)
}

func TestScheduleIntoPastPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic scheduling into the past")
		}
	}()
	NewEnv(1).Schedule(-1, func() {})
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500, "500ns"},
		{1500, "1.50us"},
		{2500 * Microsecond, "2.500ms"},
		{3 * Second, "3.0000s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

// Property: for any set of sleep durations, every process wakes exactly at
// the cumulative sum of its sleeps, regardless of how many processes run.
func TestPropertySleepAccumulates(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		e := NewEnv(42)
		var total Duration
		for _, r := range raw {
			total += Duration(r)
		}
		ok := true
		e.Go("p", func(p *Proc) {
			for _, r := range raw {
				p.Sleep(Duration(r))
			}
			ok = p.Now() == Time(total)
		})
		e.Run()
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a capacity-c resource with n identical jobs of length d always
// finishes at ceil(n/c)*d.
func TestPropertyResourceMakespan(t *testing.T) {
	f := func(nRaw, cRaw uint8) bool {
		n := int(nRaw%20) + 1
		c := int(cRaw%8) + 1
		e := NewEnv(1)
		r := NewResource(e, "core", c)
		for i := 0; i < n; i++ {
			e.Go(fmt.Sprintf("w%d", i), func(p *Proc) { p.Use(r, Millisecond) })
		}
		end := e.Run()
		waves := (n + c - 1) / c
		return end == Time(Duration(waves)*Millisecond)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestWakeDueNowKeepsItsTurn holds the order a completion's waiter resumes
// in against the callbacks due at the same instant: after every event queued
// before the wake, before every event scheduled after it — whether or not
// another event due now is queued when the wake is given.
func TestWakeDueNowKeepsItsTurn(t *testing.T) {
	for _, tc := range []struct {
		name   string
		queued bool // an event due now is queued behind the firing one
		want   string
	}{
		{"event-due-now-queued", true, "fire queued waiter late"},
		{"nothing-due-now", false, "fire waiter late"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEnv(1)
			c := NewCompletion(e)
			var order []string
			e.Go("waiter", func(p *Proc) {
				p.Wait(c)
				order = append(order, "waiter")
			})
			e.Schedule(Millisecond, func() {
				order = append(order, "fire")
				c.Fire()
				e.Schedule(0, func() { order = append(order, "late") })
			})
			if tc.queued {
				e.Schedule(Millisecond, func() { order = append(order, "queued") })
			}
			e.Run()
			if got := strings.Join(order, " "); got != tc.want {
				t.Errorf("order %q, want %q", got, tc.want)
			}
		})
	}
}
