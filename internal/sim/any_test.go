package sim

import (
	"fmt"
	"slices"
	"testing"
)

// TestWaitAnyTakesACompletionThatFiredFirst adds one completion that fired
// before it joined the set and one that fires before the wait: each WaitAny
// returns at once, scheduling no wake, and the clock does not move.
func TestWaitAnyTakesACompletionThatFiredFirst(t *testing.T) {
	e := NewEnv(1)
	e.Go("waiter", func(p *Proc) {
		var a Any
		early := NewCompletion(e)
		early.Fire()
		a.Add(early)
		late := NewCompletion(e)
		a.Add(late)
		late.Fire()
		if a.Len() != 2 {
			t.Fatalf("Len %d after two adds, want 2", a.Len())
		}
		before := e.seq
		p.WaitAny(&a)
		p.WaitAny(&a)
		if e.seq != before || p.Now() != 0 || a.Len() != 0 {
			t.Errorf("two fired completions: %d wakes scheduled, t=%v, Len %d; want 0, 0, 0",
				e.seq-before, Duration(p.Now()), a.Len())
		}
	})
	e.Run()
}

// TestWaitAnyTakesSimultaneousCompletionsOneEach fires three completions at
// one instant, and a fourth later: the first WaitAny parks and wakes at that
// instant, the next two return without parking, and the fourth parks again.
// A park is a wake the set schedules: each event's seq counts one.
func TestWaitAnyTakesSimultaneousCompletionsOneEach(t *testing.T) {
	e := NewEnv(1)
	var a Any
	cs := make([]*Completion, 4)
	for i := range cs {
		cs[i] = NewCompletion(e)
		a.Add(cs[i])
	}
	e.Schedule(Millisecond, func() {
		for _, c := range cs[:3] {
			c.Fire()
		}
	})
	e.Schedule(3*Millisecond, cs[3].Fire)
	var woke []Time
	var wakes []uint64
	e.Go("waiter", func(p *Proc) {
		for a.Len() > 0 {
			before := e.seq
			p.WaitAny(&a)
			woke = append(woke, p.Now())
			wakes = append(wakes, e.seq-before)
		}
	})
	e.Run()
	ms := Time(Millisecond)
	if len(woke) != 4 || woke[0] != ms || woke[1] != ms || woke[2] != ms || woke[3] != 3*ms {
		t.Fatalf("WaitAny returned at %v, want 1 ms three times, then 3 ms", woke)
	}
	if want := []uint64{1, 0, 0, 1}; !slices.Equal(wakes, want) {
		t.Errorf("wakes scheduled per WaitAny %v, want %v: the first and last park, the middle two not", wakes, want)
	}
}

// TestWaitAnyOnAnEmptySetPanics: nothing could ever wake the waiter.
func TestWaitAnyOnAnEmptySetPanics(t *testing.T) {
	e := NewEnv(1)
	e.Go("waiter", func(p *Proc) {
		var a Any
		p.WaitAny(&a)
	})
	defer func() {
		if recover() == nil {
			t.Error("WaitAny on an empty set did not panic")
		}
	}()
	e.Run()
}

// TestWaitAnyAllocatesNothing is the allocation gate on an active-wait
// driver's loop: once the set has bound its callback, adding a completion,
// its firing and the wait that takes it allocate nothing.
func TestWaitAnyAllocatesNothing(t *testing.T) {
	e := NewEnv(1)
	const runs = 100
	cs := make([]*Completion, runs+2)
	for i := range cs {
		cs[i] = NewCompletion(e)
	}
	next := 0
	fire := func() { cs[next-1].Fire() }
	e.Go("driver", func(p *Proc) {
		var a Any
		got := testing.AllocsPerRun(runs, func() {
			a.Add(cs[next])
			next++
			e.Schedule(Microsecond, fire)
			p.WaitAny(&a)
		})
		if got != 0 || a.Len() != 0 {
			t.Errorf("Add + Fire + WaitAny: %v allocations, Len %d; want 0, 0", got, a.Len())
		}
	})
	e.Run()
}

// TestAnyHookCountsAReportedCompletion: a completion whose callback
// another layer runs joins the set through Hook, and Reset empties the set
// once everything in it has fired, dropping what no WaitAny took.
func TestAnyHookCountsAReportedCompletion(t *testing.T) {
	e := NewEnv(1)
	var a Any
	landed := a.Hook()
	a.Add(NewCompletion(e)) // never fires: only counts
	e.Schedule(Millisecond, landed)
	e.Go("waiter", func(p *Proc) {
		p.WaitAny(&a)
		if p.Now() != Time(Millisecond) || a.Pending() != 1 {
			t.Errorf("woke at %v with %d pending, want 1 ms and 1", Duration(p.Now()), a.Pending())
		}
	})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("Reset with a completion pending did not panic")
		}
	}()
	a.Reset()
}

// TestAnyResetDropsUntakenCompletions: two fired, one taken, then Reset:
// the set is empty and the next WaitAny parks for a new one.
func TestAnyResetDropsUntakenCompletions(t *testing.T) {
	e := NewEnv(1)
	var a Any
	for range 2 {
		c := NewCompletion(e)
		a.Add(c)
		c.Fire()
	}
	e.Go("waiter", func(p *Proc) {
		p.WaitAny(&a)
		a.Reset()
		if a.Len() != 0 {
			t.Fatalf("Len %d after Reset, want 0", a.Len())
		}
		c := NewCompletion(e)
		a.Add(c)
		e.Schedule(Millisecond, c.Fire)
		p.WaitAny(&a)
		if p.Now() != Time(Millisecond) {
			t.Errorf("WaitAny after Reset returned at %v, want 1 ms", Duration(p.Now()))
		}
	})
	e.Run()
}

// TestSignalWakesEveryWaiter: three processes wait on one signal and one
// Notify resumes all three at that instant, in the order they began to
// wait; a Notify with no one waiting is lost.
func TestSignalWakesEveryWaiter(t *testing.T) {
	e := NewEnv(1)
	var s Signal
	s.Notify() // lost: no one waits yet
	var woke []string
	for _, name := range []string{"a", "b", "c"} {
		e.Go(name, func(p *Proc) {
			p.Await(&s)
			woke = append(woke, fmt.Sprintf("%s@%v", name, Duration(p.Now())))
		})
	}
	e.Schedule(Millisecond, s.Notify)
	e.Run()
	if want := []string{"a@1.000ms", "b@1.000ms", "c@1.000ms"}; !slices.Equal(woke, want) {
		t.Errorf("woke %v, want %v", woke, want)
	}
}

// TestSignalAllocatesNothing: a signal kept across rounds reuses its
// waiter list, so a wait and the notify that ends it allocate nothing.
func TestSignalAllocatesNothing(t *testing.T) {
	e := NewEnv(1)
	var s Signal
	notify := s.Notify
	e.Go("waiter", func(p *Proc) {
		got := testing.AllocsPerRun(100, func() {
			e.Schedule(Microsecond, notify)
			p.Await(&s)
		})
		if got != 0 {
			t.Errorf("Await + Notify: %v allocations, want 0", got)
		}
	})
	e.Run()
}
