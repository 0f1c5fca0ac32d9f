package sim

import (
	"fmt"
	"testing"
)

// BenchmarkEventThroughput measures raw scheduler throughput: how many
// plain events the kernel fires per second of host time.
func BenchmarkEventThroughput(b *testing.B) {
	e := NewEnv(1)
	var tick func()
	fired := 0
	tick = func() {
		fired++
		if fired < b.N {
			e.Schedule(Microsecond, tick)
		}
	}
	b.ResetTimer()
	e.Schedule(Microsecond, tick)
	e.Run()
}

// BenchmarkProcessContextSwitch is the self-wake figure: one process
// sleeping in a loop parks, drives the event loop on its own stack, pops its
// own wake and returns — a heap push and pop and no switch.
func BenchmarkProcessContextSwitch(b *testing.B) {
	e := NewEnv(1)
	e.Go("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkHandoffRing is the hand-off figure: eight processes sleeping in
// strict rotation, so every wake belongs to a process other than the one
// that just parked and every op is one baton pass — a yield to the
// trampoline and a resume. The self-wake benchmark above never switches.
func BenchmarkHandoffRing(b *testing.B) {
	e := NewEnv(1)
	const procs = 8
	each := b.N/procs + 1
	for w := 0; w < procs; w++ {
		e.Go(fmt.Sprintf("p%d", w), func(p *Proc) {
			p.Sleep(Duration(w) * Nanosecond)
			for i := 0; i < each; i++ {
				p.Sleep(procs * Nanosecond)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkProcPingPong is the cross-process figure through Completions: two
// processes wake each other, so every op is one baton pass. Completions are
// one-shot; the waiter re-arms its own in place — a lone waiter sits in the
// struct — so the loop allocates nothing and the hand-off is all that is
// measured.
func BenchmarkProcPingPong(b *testing.B) {
	e := NewEnv(1)
	each := b.N/2 + 1
	rearm := func(c *Completion) { *c = Completion{env: e} }
	ping, pong := NewCompletion(e), NewCompletion(e)
	e.Go("a", func(p *Proc) {
		for i := 0; i < each; i++ {
			ping.Fire()
			p.Wait(pong)
			rearm(pong)
		}
	})
	e.Go("b", func(p *Proc) {
		for i := 0; i < each; i++ {
			p.Wait(ping)
			rearm(ping)
			pong.Fire()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkManyProcesses interleaves 64 sleeping processes.
func BenchmarkManyProcesses(b *testing.B) {
	e := NewEnv(1)
	const procs = 64
	each := b.N/procs + 1
	for w := 0; w < procs; w++ {
		e.Go(fmt.Sprintf("p%d", w), func(p *Proc) {
			for i := 0; i < each; i++ {
				p.Sleep(Microsecond)
			}
		})
	}
	b.ResetTimer()
	e.Run()
}

// BenchmarkTypedEvents isolates the two event representations so a
// regression in either stays visible: wakeup events carry the process in the
// event itself (the Sleep/Wait/grant path, zero allocations), callback
// events carry a func() (the Schedule path).
func BenchmarkTypedEvents(b *testing.B) {
	b.Run("wakeup-only", func(b *testing.B) {
		// One process sleeping in a tight loop: every event is a proc wakeup.
		e := NewEnv(1)
		e.Go("sleeper", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				p.Sleep(Microsecond)
			}
		})
		b.ReportAllocs()
		b.ResetTimer()
		e.Run()
	})
	b.Run("callback-heavy", func(b *testing.B) {
		// A self-rescheduling callback chain: every event runs a func().
		e := NewEnv(1)
		var tick func()
		fired := 0
		tick = func() {
			fired++
			if fired < b.N {
				e.Schedule(Microsecond, tick)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		e.Schedule(Microsecond, tick)
		e.Run()
	})
	b.Run("mixed", func(b *testing.B) {
		// Completions fired from callbacks waking a waiting process: each
		// iteration exercises one callback event and one wakeup event.
		e := NewEnv(1)
		next := NewCompletion(e)
		e.Go("waiter", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				c := next
				p.Wait(c)
				next = NewCompletion(e)
			}
		})
		var arm func()
		fired := 0
		arm = func() {
			fired++
			next.Fire()
			if fired < b.N {
				e.Schedule(Microsecond, arm)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		e.Schedule(Microsecond, arm)
		e.Run()
	})
}

// BenchmarkResourceContention measures acquire/release under queueing: 16
// processes on 4 units, so most acquires park in the wait ring and most
// wakes cross processes. Allocation-free: waiters are queued as *Proc.
func BenchmarkResourceContention(b *testing.B) {
	e := NewEnv(1)
	r := NewResource(e, "core", 4)
	const procs = 16
	each := b.N/procs + 1
	for w := 0; w < procs; w++ {
		e.Go(fmt.Sprintf("w%d", w), func(p *Proc) {
			for i := 0; i < each; i++ {
				p.Use(r, Microsecond)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}
