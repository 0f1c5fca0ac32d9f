package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// panicOf runs fn and returns the value it panicked with, or nil.
func panicOf(fn func()) (r interface{}) {
	defer func() { r = recover() }()
	fn()
	return nil
}

// A callback that panics while a process's goroutine is driving the loop
// surfaces from Run with its original value, and the driving process — a
// bystander — is neither unwound nor killed: it stays parked, and a later Run
// resumes it.
func TestCallbackPanicOnProcessStack(t *testing.T) {
	e := NewEnv(1)
	boom := errors.New("boom")
	unwound, finished := false, false
	e.Go("bystander", func(p *Proc) {
		defer func() { unwound = true }()
		p.Sleep(2 * Millisecond) // drives the loop: the 1ms callback fires here
		finished = true
	})
	e.Schedule(Millisecond, func() { panic(boom) })

	if got := panicOf(func() { e.Run() }); got != boom {
		t.Fatalf("Run panicked with %v, want the callback's value %v", got, boom)
	}
	if unwound {
		t.Fatal("callback panic ran the deferred functions of the process that was driving")
	}
	if e.LiveProcs() != 1 {
		t.Fatalf("LiveProcs = %d after callback panic, want the bystander still parked", e.LiveProcs())
	}
	if end := e.Run(); end != Time(2*Millisecond) || !finished || e.LiveProcs() != 0 {
		t.Fatalf("second Run: end=%v finished=%v live=%d, want the bystander resumed and drained",
			Duration(end), finished, e.LiveProcs())
	}
}

// A process body that panics re-raises from Run, whether Run's goroutine or
// another process handed it the baton.
func TestProcessPanicSurfacesFromRun(t *testing.T) {
	for _, viaPeer := range []bool{false, true} {
		e := NewEnv(1)
		boom := fmt.Sprintf("boom viaPeer=%v", viaPeer)
		if viaPeer {
			e.Go("peer", func(p *Proc) { p.Sleep(2 * Millisecond) })
		}
		e.Go("bad", func(p *Proc) {
			p.Sleep(Millisecond)
			panic(boom)
		})
		if got := panicOf(func() { e.Run() }); got != boom {
			t.Errorf("Run panicked with %v, want %q", got, boom)
		}
	}
}

// RunUntil that stops while a process holds the baton returns false with the
// process parked; a later Run resumes it where it stopped.
func TestRunUntilThenRunResumes(t *testing.T) {
	e := NewEnv(1)
	ticks := 0
	e.Go("ticker", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(Millisecond)
			ticks++
		}
	})
	if e.RunUntil(Time(10 * Millisecond)) {
		t.Fatal("RunUntil reported drained, want deadline cut-off")
	}
	if ticks != 10 || e.LiveProcs() != 1 || e.Now() != Time(10*Millisecond) {
		t.Fatalf("after RunUntil: ticks=%d live=%d now=%v, want 10, 1, 10ms", ticks, e.LiveProcs(), Duration(e.Now()))
	}
	if end := e.Run(); end != Time(100*Millisecond) || ticks != 100 || e.LiveProcs() != 0 {
		t.Fatalf("after Run: end=%v ticks=%d live=%d, want 100ms, 100, 0", Duration(end), ticks, e.LiveProcs())
	}
}

// A process whose exit is the last event hands the baton back to Run.
func TestExitAsLastEventReturnsBaton(t *testing.T) {
	e := NewEnv(1)
	e.Go("first", func(p *Proc) { p.Sleep(Millisecond) })
	e.Go("last", func(p *Proc) { p.Sleep(2 * Millisecond) })
	if end := e.Run(); end != Time(2*Millisecond) || e.LiveProcs() != 0 {
		t.Fatalf("end=%v live=%d, want 2ms, 0", Duration(end), e.LiveProcs())
	}
}

// Processes spawned at one timestamp from callbacks and from a process start
// in the order Go was called.
func TestGoStartOrderIsFIFOAcrossContexts(t *testing.T) {
	e := NewEnv(1)
	var order []string
	spawn := func(name string) {
		e.Go(name, func(*Proc) { order = append(order, name) })
	}
	e.Schedule(Millisecond, func() { spawn("cb1") })
	e.Go("parent", func(p *Proc) {
		p.Sleep(Millisecond)
		spawn("proc1")
		spawn("proc2")
	})
	e.Schedule(Millisecond, func() { spawn("cb2") })
	e.Run()
	if got, want := strings.Join(order, " "), "cb1 cb2 proc1 proc2"; got != want {
		t.Fatalf("start order %q, want %q", got, want)
	}
}

func TestDeadlockReportText(t *testing.T) {
	e := NewEnv(1)
	never := NewCompletion(e)
	wg := NewWaitGroup(e)
	wg.Add(1)
	core := NewResource(e, "core", 1)
	e.Go("holder", func(p *Proc) {
		p.Acquire(core)
		p.Sleep(Millisecond)
		p.Wait(never)
	})
	e.Go("queued", func(p *Proc) { p.Acquire(core) })
	e.Go("joiner", func(p *Proc) { p.WaitFor(wg) })
	want := "sim: deadlock at t=1.000ms: 3 process(es) still waiting: " +
		"[holder (completion) joiner (waitgroup) queued (resource core)]"
	if got := panicOf(func() { e.Run() }); got != want {
		t.Fatalf("deadlock report\n got %v\nwant %v", got, want)
	}
}

// A queued Acquire woken by anything but Release panics: the grant flag lives
// on the Proc, and a stale true from an earlier grant must not satisfy it.
func TestUngrantedResumePanics(t *testing.T) {
	e := NewEnv(1)
	core := NewResource(e, "core", 1)
	e.Go("holder", func(p *Proc) {
		p.Acquire(core)
		p.Sleep(Millisecond)
		core.Release()
		p.Sleep(Millisecond)
	})
	waiter := e.Go("waiter", func(p *Proc) {
		p.Acquire(core) // queued, granted at 1ms
		p.Acquire(core) // queued behind itself: nobody will release
	})
	e.Schedule(2*Millisecond, func() { e.wake(waiter, 0) })
	want := "sim: resumed without grant from resource core"
	if got := panicOf(func() { e.Run() }); got != want {
		t.Fatalf("Run panicked with %v, want %q", got, want)
	}
}

// After a clean drain every process goroutine has ended. They end just after
// passing the baton, so give the scheduler a bounded moment to retire them.
func TestNoGoroutinesLeftAfterDrain(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEnv(1)
	done := NewCompletion(e)
	for i := 0; i < 16; i++ {
		e.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			p.Sleep(Duration(i) * Microsecond)
			p.Wait(done)
		})
	}
	e.Schedule(Millisecond, done.Fire)
	e.Run()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after drain, %d before Run", runtime.NumGoroutine(), before)
		}
	}
}

// The baton crosses goroutines only when the next process to run is not the
// one that just parked. A timing assertion would flake; the count does not.
func TestHandoffCounts(t *testing.T) {
	const n = 1000
	solo := NewEnv(1)
	solo.Go("sleeper", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(Microsecond)
		}
	})
	solo.Run()
	if solo.handoffs > 2 {
		t.Errorf("one process sleeping %d times: %d hand-offs, want <= 2 (start, exit)", n, solo.handoffs)
	}

	// a wakes at 2,4,..,n µs and b at 1,3,..,n-1 µs: n wakes, strictly
	// alternating, so every one of them is a cross-process hand-off.
	duo := NewEnv(1)
	duo.Go("a", func(p *Proc) {
		for i := 0; i < n/2; i++ {
			p.Sleep(2 * Microsecond)
		}
	})
	duo.Go("b", func(p *Proc) {
		p.Sleep(Microsecond)
		for i := 1; i < n/2; i++ {
			p.Sleep(2 * Microsecond)
		}
	})
	duo.Run()
	if duo.handoffs > n+2 {
		t.Errorf("two processes alternating %d times: %d hand-offs, want <= %d", n, duo.handoffs, n+2)
	}
}

// resumeOrder runs 64 processes mixing Sleep, Wait, Acquire and WaitFor and
// logs every point at which one of them gets control, grouped by virtual
// microsecond.
func resumeOrder() string {
	e := NewEnv(7)
	cores := NewResource(e, "core", 3)
	others := NewWaitGroup(e)
	gates := make([]*Completion, 4)
	for i := range gates {
		gates[i] = NewCompletion(e)
		e.Schedule(Duration(3+4*i)*Microsecond, gates[i].Fire)
	}
	var log strings.Builder
	last := Time(-1)
	mark := func(p *Proc) {
		if p.Now() != last {
			last = p.Now()
			fmt.Fprintf(&log, "\n%d:", last/Time(Microsecond))
		}
		log.WriteString(" " + p.Name())
	}
	for i := 0; i < 64; i++ {
		if i%4 != 3 {
			others.Add(1)
		}
		e.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			mark(p)
			switch i % 4 {
			case 0:
				for k := 0; k < 3; k++ {
					p.Sleep(Duration(1+(i/4+k)%5) * Microsecond)
					mark(p)
				}
			case 1:
				p.Wait(gates[(i/4)%len(gates)])
				mark(p)
				p.Sleep(Duration(i/4%3) * Microsecond)
				mark(p)
			case 2:
				for k := 0; k < 2; k++ {
					p.Acquire(cores)
					mark(p)
					p.Sleep(Microsecond)
					cores.Release()
				}
			case 3:
				p.WaitFor(others)
				mark(p)
				return
			}
			others.Done()
		})
	}
	e.Run()
	return log.String()
}

const wantResumeOrder = `
0: p0 p1 p2 p2 p3 p4 p5 p6 p6 p7 p8 p9 p10 p10 p11 p12 p13 p14 p15 p16 p17 p18 p19 p20 p21 p22 p23 p24 p25 p26 p27 p28 p29 p30 p31 p32 p33 p34 p35 p36 p37 p38 p39 p40 p41 p42 p43 p44 p45 p46 p47 p48 p49 p50 p51 p52 p53 p54 p55 p56 p57 p58 p59 p60 p61 p62 p63
1: p0 p20 p40 p60 p14 p18 p22
2: p4 p24 p44 p26 p30 p34
3: p8 p28 p48 p0 p20 p40 p60 p1 p17 p33 p49 p38 p42 p46 p1 p49
4: p12 p32 p52 p17 p50 p54 p58
5: p16 p36 p56 p4 p24 p44 p33 p62 p2 p6
6: p0 p20 p40 p60 p16 p36 p56 p10 p14 p18
7: p8 p28 p48 p5 p21 p37 p53 p22 p26 p30 p37
8: p16 p36 p56 p5 p53 p34 p38 p42
9: p12 p32 p52 p4 p24 p44 p21 p46 p50 p54
10: p12 p32 p52 p58 p62
11: p9 p25 p41 p57 p25
12: p8 p28 p48 p41
13: p9 p57
15: p13 p29 p45 p61 p13 p61
16: p29
17: p45 p3 p7 p11 p15 p19 p23 p27 p31 p35 p39 p43 p47 p51 p55 p59 p63`

// The sequence above was captured from the channel-scheduler kernel this one
// replaced (commit daea8c7): pop order is still (at, seq), so who runs when
// must not have moved.
func TestResumeOrderMatchesOldKernel(t *testing.T) {
	if got := resumeOrder(); got != wantResumeOrder {
		t.Fatalf("resume order moved\n got:%s\nwant:%s", got, wantResumeOrder)
	}
}
