package sim

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
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

// settledGoroutines reports runtime.NumGoroutine once every finalizer due so
// far has run to its end: the one finalizer goroutine works through its queue
// in batches, so when a second sentinel's finalizer has run, every finalizer
// the first collection queued — the ticket that empties an Env's free list
// among them — has returned.
func settledGoroutines() int {
	for i := 0; i < 2; i++ {
		ran := make(chan struct{})
		runtime.SetFinalizer(new(*int), func(**int) { close(ran) })
		runtime.GC()
		<-ran
	}
	return runtime.NumGoroutine()
}

// onlyForcedCollections turns the collector off for the rest of the test: a
// free list expires at the first collection after a Run, so a test that counts
// idle coroutines has to say when that is. settledGoroutines still collects.
func onlyForcedCollections(t *testing.T) {
	old := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(old) })
}

// thrice runs body three times in one process: the goroutine counts of one
// round would show what the round before it left behind.
func thrice(t *testing.T, body func(*testing.T)) {
	for range 3 {
		body(t)
	}
}

// idle reports the length of e's free list. The lock is what orders this read
// after an expire on the finalizer goroutine.
func idle(e *Env) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.idle)
}

// runFleet spawns n processes that sleep, then wait for one completion, and
// runs e dry: all n are alive at once, as a scan's workers are.
func runFleet(e *Env, n int) {
	done := NewCompletion(e)
	for i := 0; i < n; i++ {
		e.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			p.Sleep(Duration(i) * Microsecond)
			p.Wait(done)
		})
	}
	e.Schedule(Millisecond, done.Fire)
	e.Run()
}

// What a process costs in goroutines, in three statements: none per process
// once it has exited, only the free list's bounded number of idle coroutines;
// nothing that grows with the number of Runs; nothing at all one collection
// after the last Run, whether the Env is still in use or unreachable.
func TestNoGoroutinesLeftAfterDrain(t *testing.T) { thrice(t, noGoroutinesLeftAfterDrain) }

func noGoroutinesLeftAfterDrain(t *testing.T) {
	onlyForcedCollections(t)
	t.Run("drain leaves at most the free list", func(t *testing.T) {
		base := settledGoroutines()
		e := NewEnv(1)
		runFleet(e, 3*maxIdleCoros)
		if got := runtime.NumGoroutine() - base; e.LiveProcs() != 0 || got > maxIdleCoros || idle(e) != got {
			t.Fatalf("after drain: %d live, %d goroutines over baseline, %d idle; want 0, at most %d, all of them idle",
				e.LiveProcs(), got, idle(e), maxIdleCoros)
		}
	})

	t.Run("runs do not accumulate", func(t *testing.T) {
		settledGoroutines() // an earlier test's Env, collected in mid-count, would lower it
		e := NewEnv(1)
		runFleet(e, 32)
		one := runtime.NumGoroutine()
		for i := 0; i < 1000; i++ {
			runFleet(e, 32)
		}
		if got := runtime.NumGoroutine(); got != one || e.LiveProcs() != 0 {
			t.Fatalf("%d goroutines after 1001 Runs of 32 processes, %d after one; %d live", got, one, e.LiveProcs())
		}
	})

	// Each of these leaves every coroutine it started either ended or idle, so
	// a collection returns the count to baseline. (Processes still parked are
	// a different matter: see the next test.)
	histories := map[string]func(e *Env){
		"drained": func(e *Env) { runFleet(e, 32) },
		"cut short, then drained": func(e *Env) {
			for i := 0; i < 8; i++ {
				e.Go("sleeper", func(p *Proc) { p.Sleep(Second) })
			}
			if e.RunUntil(Time(Millisecond)) || e.LiveProcs() != 8 {
				t.Errorf("RunUntil: want a cut-off with 8 parked, have %d live", e.LiveProcs())
			}
			e.Run()
		},
		"run re-panicked": func(e *Env) {
			for i := 0; i < 8; i++ {
				e.Go("ok", func(p *Proc) { p.Sleep(Microsecond) })
			}
			e.Go("bad", func(p *Proc) {
				p.Sleep(Millisecond)
				panic("boom")
			})
			if got := panicOf(func() { e.Run() }); got != "boom" {
				t.Errorf("Run panicked with %v, want boom", got)
			}
		},
	}
	for name, use := range histories {
		t.Run("released by a collection/"+name, func(t *testing.T) {
			base := settledGoroutines()
			e := NewEnv(1)
			use(e)
			if got := settledGoroutines(); got != base || idle(e) != 0 {
				t.Fatalf("Env in use: %d goroutines and %d idle after a collection, %d before the Env was made", got, idle(e), base)
			}
			runFleet(e, 8) // and an emptied free list is just an empty one
			if e.LiveProcs() != 0 || idle(e) != 8 {
				t.Fatalf("next Run on the emptied list: %d live, %d idle, want 0 and 8", e.LiveProcs(), idle(e))
			}
			e = nil
			if got := settledGoroutines(); got != base {
				t.Fatalf("Env dropped: %d goroutines after a collection, %d before it was made", got, base)
			}
		})
	}
}

// The limit of the third statement above. A process parked in mid-body holds
// its Env from its stack, and a parked coroutine's stack is a GC root like
// any blocked goroutine's: an Env dropped after a cut-short RunUntil, or
// after a callback's panic left a bystander parked, keeps those coroutines —
// exactly those (the idle one goes), and a later Run would still resume them.
func TestAbandonedParkedProcessesKeepTheirCoroutines(t *testing.T) {
	thrice(t, abandonedParkedProcessesKeepTheirCoroutines)
}

func abandonedParkedProcessesKeepTheirCoroutines(t *testing.T) {
	onlyForcedCollections(t)
	base := settledGoroutines()
	func() {
		e := NewEnv(1)
		for i := 0; i < 4; i++ {
			e.Go("sleeper", func(p *Proc) { p.Sleep(Second) })
		}
		e.Go("done early", func(p *Proc) {})
		e.RunUntil(Time(Millisecond))
	}()
	if got := settledGoroutines() - base; got != 4 {
		t.Fatalf("%d goroutines over baseline, want the 4 parked processes and nothing else", got)
	}
}

// Only a body that returned hands its coroutine on. One that panicked ends
// it; a bystander that a callback's panic left parked is still on its own
// and must not be handed a second process; and a process started on a used
// coroutine is a new process in every respect.
func TestFreeListHygiene(t *testing.T) { thrice(t, freeListHygiene) }

func freeListHygiene(t *testing.T) {
	onlyForcedCollections(t)
	e := NewEnv(1)
	e.Go("bad", func(p *Proc) { panic("boom") })
	if got := panicOf(func() { e.Run() }); got != "boom" || idle(e) != 0 {
		t.Fatalf("Run panicked with %v and left %d idle coroutines, want boom and none", got, idle(e))
	}

	var order []string
	bystander := e.Go("bystander", func(p *Proc) {
		p.Sleep(2 * Millisecond) // drives the loop: the callback below fires here
		order = append(order, p.Name())
	})
	e.Schedule(Millisecond, func() { panic("callback") })
	if got := panicOf(func() { e.Run() }); got != "callback" || idle(e) != 0 || bystander.co == nil {
		t.Fatalf("Run panicked with %v, %d idle, bystander coroutine %v; want callback, none, still its own",
			got, idle(e), bystander.co)
	}
	held := bystander.co
	e.Go("newcomer", func(p *Proc) {
		if p.co == held {
			t.Error("a new process was started on the coroutine a parked bystander is on")
		}
		order = append(order, p.Name())
	})
	e.Run()
	if got := strings.Join(order, " "); got != "newcomer bystander" || e.LiveProcs() != 0 || idle(e) != 2 {
		t.Fatalf("order %q, %d live, %d idle; want both to finish and both coroutines idle", got, e.LiveProcs(), idle(e))
	}

	// A reused coroutine: the second process gets its own Proc, runs its own
	// deferred calls once, and its panic is its own.
	first := e.Go("first", func(p *Proc) {
		defer func() { order = append(order, "first deferred") }()
		p.Sleep(Millisecond)
	})
	e.Run()
	was := idle(e)
	order = order[:0]
	e.Go("second", func(p *Proc) {
		if p == first || p.Name() != "second" || p.parked || p.done || idle(e) != was-1 {
			t.Errorf("second process: %+v with %d idle, want a fresh Proc on a coroutine off the free list", *p, idle(e))
		}
		p.Sleep(Millisecond)
		panic("second")
	})
	if got := panicOf(func() { e.Run() }); got != "second" || len(order) != 0 || idle(e) != was-1 {
		t.Fatalf("Run panicked with %v, saw %q, %d idle; want second, nothing of the first process, %d", got, order, idle(e), was-1)
	}
}

// Tickets expire on the finalizer goroutine while Envs on other goroutines go
// from Run to Run, as host.Sweep's do. Every eighth Run waits for a collection
// first, so that its entry meets the expiry of the list the last one left:
// whichever side takes the Env's lock first, a Run starts every process it
// was given, on a coroutine that is fresh or still alive, and finishes them.
func TestFreeListExpiresBetweenConcurrentRuns(t *testing.T) {
	thrice(t, freeListExpiresBetweenConcurrentRuns)
}

func freeListExpiresBetweenConcurrentRuns(t *testing.T) {
	var collections atomic.Int64
	stop := make(chan struct{})
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for {
			select {
			case <-stop:
				return
			default:
				runtime.GC()
				collections.Add(1)
			}
		}
	}()
	var sweep sync.WaitGroup
	for w := 0; w < 4; w++ {
		sweep.Add(1)
		go func() {
			defer sweep.Done()
			e := NewEnv(int64(w))
			for i := 0; i < 240; i++ {
				if i%8 == 0 {
					for seen := collections.Load(); collections.Load() < seen+2; {
						runtime.Gosched()
					}
				}
				n, ran := 1+i%9, 0
				for k := 0; k < n; k++ {
					e.Go("p", func(p *Proc) {
						p.Sleep(Duration(k) * Microsecond)
						ran++
					})
				}
				if e.Run(); ran != n || e.LiveProcs() != 0 {
					t.Errorf("env %d run %d: %d of %d processes ran, %d live", w, i, ran, n, e.LiveProcs())
					return
				}
			}
		}()
	}
	sweep.Wait()
	close(stop)
	<-collected
}

// runtime.Goexit in a process body is not confined to the process, because
// iter.Pull carries it to the caller of next: the process's deferred calls
// run, it leaves the live set, and the goroutine that called Run ends —
// which is what t.FailNow in a process body needs in order to stop the test.
// The Env stays consistent: the other process is still parked and a later
// Run resumes it.
func TestGoexitInProcessEndsRunsGoroutine(t *testing.T) { thrice(t, goexitInProcessEndsRunsGoroutine) }

func goexitInProcessEndsRunsGoroutine(t *testing.T) {
	onlyForcedCollections(t)
	base := settledGoroutines()
	e := NewEnv(1)
	var deferred, returned, finished bool
	e.Go("peer", func(p *Proc) {
		p.Sleep(2 * Millisecond)
		finished = true
	})
	e.Go("quitter", func(p *Proc) {
		defer func() { deferred = true }()
		p.Sleep(Millisecond)
		runtime.Goexit()
	})
	ended := make(chan struct{})
	go func() {
		defer close(ended)
		e.Run()
		returned = true
	}()
	<-ended
	if !deferred || returned || finished || e.LiveProcs() != 1 {
		t.Fatalf("after Goexit: deferred=%v, Run returned=%v, peer finished=%v, %d live; want true, false, false, 1",
			deferred, returned, finished, e.LiveProcs())
	}
	if end := e.Run(); end != Time(2*Millisecond) || !finished || e.LiveProcs() != 0 {
		t.Fatalf("second Run: end=%v finished=%v live=%d, want the peer resumed and drained", Duration(end), finished, e.LiveProcs())
	}
	// The quitter's coroutine ended with it; only the peer's is left, idle.
	// close(ended) ran in a deferred call of the goroutine that called Run,
	// which may not have left yet: yield until it has, or for ten seconds. A
	// collection would expire the free list idle counts, so nothing here
	// collects.
	for until := time.Now().Add(10 * time.Second); runtime.NumGoroutine()-base > 1 && time.Now().Before(until); {
		runtime.Gosched()
	}
	if got := runtime.NumGoroutine() - base; got != 1 || idle(e) != 1 {
		t.Fatalf("%d goroutines over baseline, %d idle; want 1 and 1", got, idle(e))
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
