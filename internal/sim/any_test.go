package sim

import (
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
