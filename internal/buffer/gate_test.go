package buffer

import (
	"errors"
	"testing"

	"pioqo/internal/device"
	"pioqo/internal/disk"
	"pioqo/internal/fault"
	"pioqo/internal/sim"
)

// testGate is a Gate the test grants by hand.
type testGate struct {
	grant  *sim.Completion
	passed int   // Admit calls: reads made under the grant
	parked *int  // what Park last reported
	at     int64 // and where
}

func newTestGate(env *sim.Env) *testGate { return &testGate{grant: sim.NewCompletion(env)} }

func (g *testGate) Admitted() bool              { return g.grant.Fired() }
func (g *testGate) OnAdmit(fn func())           { g.grant.OnFire(fn) }
func (g *testGate) Admit(p *sim.Proc)           { p.Wait(g.grant); g.passed++ }
func (g *testGate) Park(waiters *int, at int64) { g.parked, g.at = waiters, at }

// waiters is the count Park reported for the gate's query: 0 when it waits
// on no intent.
func (g *testGate) waiters() int {
	if g.parked == nil {
		return 0
	}
	return *g.parked
}
func (g *testGate) open() {
	if !g.grant.Fired() {
		g.grant.Fire()
	}
}

// pageReads counts the reads that reach the device, per page of the one
// file allocated on it.
type pageReads struct {
	device.Device
	reads map[int64]int
}

func (d *pageReads) ReadAt(offset int64, length int) *sim.Completion {
	for pg := offset / disk.PageSize; pg < (offset+int64(length))/disk.PageSize; pg++ {
		d.reads[pg]++
	}
	return d.Device.ReadAt(offset, length)
}

func newGateWorld(poolPages int) (*sim.Env, *pageReads, *disk.File, *Pool) {
	env := sim.NewEnv(1)
	dev := &pageReads{Device: device.NewSSD(env, device.DefaultSSDConfig()), reads: map[int64]int{}}
	return env, dev, disk.NewManager(dev).MustAllocate("t", 64), NewPool(env, poolPages)
}

// TestIntentReadAtFirstGrant: three queries without their grant miss one
// page. None reads it: they park on one intent, and each gate is told that
// three queries wait on it. The second one's grant reads it, once, for all
// three; the others finish without passing their gates, and their later
// grants read nothing.
func TestIntentReadAtFirstGrant(t *testing.T) {
	env, dev, file, pool := newGateWorld(16)
	gates := []*testGate{newTestGate(env), newTestGate(env), newTestGate(env)}
	var done []sim.Time
	for _, g := range gates {
		g := g
		env.Go("q", func(p *sim.Proc) {
			h, err := pool.FetchGated(p, file, 5, g, nil)
			if err != nil {
				t.Error(err)
				return
			}
			done = append(done, p.Now())
			h.Release()
		})
	}
	env.Go("grants", func(p *sim.Proc) {
		p.Sleep(sim.Millisecond)
		if dev.reads[5] != 0 || pool.Intents() != 1 || pool.Contains(file, 5) {
			t.Errorf("before any grant: %d reads, %d intents, page present %v; want 0, 1, false",
				dev.reads[5], pool.Intents(), pool.Contains(file, 5))
		}
		for i, g := range gates {
			if g.waiters() != 3 || pool.Parked() != 3 {
				t.Errorf("gate %d reports %d waiters, the pool %d parked; want 3 and 3", i, g.waiters(), pool.Parked())
			}
			if want := file.Offset(5) / disk.PageSize; g.at != want {
				t.Errorf("gate %d reports its page at device page %d, want %d", i, g.at, want)
			}
		}
		gates[1].open()
		p.Sleep(10 * sim.Millisecond)
		gates[0].open()
		gates[2].open()
	})
	env.Run()
	if dev.reads[5] != 1 || len(done) != 3 {
		t.Fatalf("%d reads of the page, %d of 3 queries done; want 1 and 3", dev.reads[5], len(done))
	}
	for i, at := range done {
		if at != done[0] || at <= sim.Time(sim.Millisecond) || at >= sim.Time(2*sim.Millisecond) {
			t.Errorf("query %d done at %v; want all at the read after the first grant at 1ms", i, sim.Duration(at))
		}
	}
	if gates[0].passed != 0 || gates[1].passed != 1 || gates[2].passed != 0 {
		t.Errorf("gates passed %d/%d/%d times, want 0/1/0: only the granted query read under its grant",
			gates[0].passed, gates[1].passed, gates[2].passed)
	}
	for i, g := range gates {
		if g.parked != nil {
			t.Errorf("gate %d still reports its query parked", i)
		}
	}
	if pool.Intents() != 0 || pool.Pinned() != 0 || pool.Parked() != 0 {
		t.Errorf("%d intents, %d pins and %d parked left", pool.Intents(), pool.Pinned(), pool.Parked())
	}
}

// TestCanceledWaiterLeavesTheIntent: two queries without their grant park
// on one page's intent. A cancel wakes the first at once, without the page:
// it leaves the intent's count, which the second's gate reads as 1. The
// second's cancel drops the intent, and the grants that come later read
// nothing for the queries that left.
func TestCanceledWaiterLeavesTheIntent(t *testing.T) {
	env, dev, file, pool := newGateWorld(16)
	gates := []*testGate{newTestGate(env), newTestGate(env)}
	ctls := []*fault.Control{fault.NewControl(env), fault.NewControl(env)}
	left := make([]sim.Time, 2)
	for i := range gates {
		i := i
		env.Go("q", func(p *sim.Proc) {
			_, err := pool.FetchGated(p, file, 5, gates[i], ctls[i])
			if !errors.Is(err, ErrLeftGate) {
				t.Errorf("query %d: err = %v, want ErrLeftGate", i, err)
			}
			left[i] = p.Now()
		})
	}
	env.Go("cancels", func(p *sim.Proc) {
		p.Sleep(sim.Millisecond)
		ctls[0].Cancel(nil)
		if gates[1].waiters() != 1 || pool.Intents() != 1 {
			t.Errorf("after one cancel: %d waiters, %d intents; want 1 and 1", gates[1].waiters(), pool.Intents())
		}
		p.Sleep(sim.Millisecond)
		ctls[1].Cancel(nil)
		if pool.Intents() != 0 {
			t.Errorf("after both cancels: %d intents, want 0", pool.Intents())
		}
		p.Sleep(sim.Millisecond)
		gates[0].open()
		gates[1].open()
	})
	env.Run()
	if left[0] != sim.Time(sim.Millisecond) || left[1] != sim.Time(2*sim.Millisecond) {
		t.Errorf("queries left at %v and %v, want at their cancels, 1ms and 2ms", sim.Duration(left[0]), sim.Duration(left[1]))
	}
	if dev.reads[5] != 0 || pool.Contains(file, 5) {
		t.Errorf("%d reads of the page; want none: every query that wanted it left", dev.reads[5])
	}
	if pool.Parked() != 0 || gates[0].parked != nil || gates[1].parked != nil {
		t.Errorf("%d parked left, gates report %v and %v", pool.Parked(), gates[0].parked, gates[1].parked)
	}
}

// TestGrantedReaderNeverWaitsOnAnIntent: a query whose grant is far off
// parks on a page's intent. A granted query that misses the page later
// reads it at once, as if there were no intent, and the parked query joins
// that read: one read, and neither waits for the far grant.
func TestGrantedReaderNeverWaitsOnAnIntent(t *testing.T) {
	env, dev, file, pool := newGateWorld(16)
	queued, granted := newTestGate(env), newTestGate(env)
	granted.open()
	var queuedDone, grantedDone sim.Time
	env.Go("queued", func(p *sim.Proc) {
		h, err := pool.FetchGated(p, file, 7, queued, nil)
		if err != nil {
			t.Fatal(err)
		}
		queuedDone = p.Now()
		h.Release()
	})
	var alone sim.Duration
	env.Go("granted", func(p *sim.Proc) {
		p.Sleep(100 * sim.Microsecond)
		t0 := p.Now()
		h, err := pool.FetchGated(p, file, 7, granted, nil)
		if err != nil {
			t.Fatal(err)
		}
		grantedDone = p.Now()
		alone = sim.Duration(grantedDone - t0)
		h.Release()
	})
	env.Go("late grant", func(p *sim.Proc) {
		p.Sleep(sim.Second)
		queued.open()
	})
	env.Run()
	if dev.reads[7] != 1 {
		t.Fatalf("%d reads of the page, want 1", dev.reads[7])
	}
	if grantedDone >= sim.Time(sim.Second) || queuedDone != grantedDone {
		t.Errorf("granted reader done at %v, queued one at %v; want both at the granted read, far before the late grant",
			sim.Duration(grantedDone), sim.Duration(queuedDone))
	}
	if granted.passed != 1 || queued.passed != 0 {
		t.Errorf("gates passed %d (granted) and %d (queued) times, want 1 and 0", granted.passed, queued.passed)
	}
	if alone <= 0 || pool.Intents() != 0 {
		t.Errorf("granted read took %v; %d intents left", alone, pool.Intents())
	}
}

// TestGatedParkAllocations: a query that parks on a page intent another
// query made costs the pool nothing. Canceled, it leaves without an
// allocation. Woken by the read another query's grant issues, it allocates
// no more than a process that waits on the intent's completion and then
// joins the read: what the read and the join cost, nothing of the gate's.
func TestGatedParkAllocations(t *testing.T) {
	const runs = 50
	env := sim.NewEnv(1)
	file := disk.NewManager(flatDevice{env}).MustAllocate("t", 1<<20)
	pool := NewPool(env, 1024)

	// The holder makes the intent of page 5 and stays parked on it.
	held := fault.NewControl(env)
	env.Go("holder", func(p *sim.Proc) {
		if _, err := pool.FetchGated(p, file, 5, newTestGate(env), held); !errors.Is(err, ErrLeftGate) {
			t.Errorf("holder: err = %v, want ErrLeftGate", err)
		}
	})
	// Each round of the granted case starts a holder's fetch of a page of
	// its own (start), which its gate's grant (open) reads.
	const rounds = 2 * (runs + 1) // AllocsPerRun calls its body runs+1 times
	var start [rounds]*sim.Completion
	var open [rounds]func()
	for i := range start {
		start[i] = sim.NewCompletion(env)
		g := newTestGate(env)
		open[i] = g.open
		env.Go("reader", func(p *sim.Proc) {
			p.Wait(start[i])
			h, err := pool.FetchGated(p, file, int64(100+i), g, nil)
			if err != nil {
				t.Error(err)
				return
			}
			h.Release()
		})
	}
	ctls := make([]*fault.Control, runs+1)
	cancels := make([]func(), runs+1)
	gates := make([]*testGate, runs+1+rounds)
	for i := range ctls {
		ctls[i] = fault.NewControl(env)
		ctl := ctls[i]
		cancels[i] = func() { ctl.Cancel(nil) }
	}
	for i := range gates {
		gates[i] = newTestGate(env)
	}

	env.Go("measure", func(p *sim.Proc) {
		p.Sleep(sim.Microsecond) // the holder parks first
		next := 0
		canceled := testing.AllocsPerRun(runs, func() {
			i := next
			next++
			env.Schedule(sim.Microsecond, cancels[i])
			if _, err := pool.FetchGated(p, file, 5, gates[i], ctls[i]); !errors.Is(err, ErrLeftGate) {
				t.Errorf("canceled park: err = %v, want ErrLeftGate", err)
			}
		})
		if canceled != 0 {
			t.Errorf("a canceled park on an existing intent: %v allocations, want 0", canceled)
		}

		round := 0
		granted := func(park func(i int, page int64)) float64 {
			return testing.AllocsPerRun(runs, func() {
				i := round
				round++
				start[i].Fire()
				p.Sleep(0) // the round's reader parks on its page's intent
				env.Schedule(sim.Microsecond, open[i])
				park(i, int64(100+i))
			})
		}
		waited := granted(func(_ int, page int64) {
			p.Wait(pool.intents[pack(file.ID(), page)].ready)
			h, err := pool.FetchPageE(p, file, page)
			if err != nil {
				t.Error(err)
				return
			}
			h.Release()
		})
		parked := granted(func(i int, page int64) {
			h, err := pool.FetchGated(p, file, page, gates[runs+1+i], nil)
			if err != nil {
				t.Error(err)
				return
			}
			h.Release()
		})
		if parked > waited {
			t.Errorf("a granted park on an existing intent: %v allocations, a plain wait on it %v", parked, waited)
		}
		held.Cancel(nil)
	})
	env.Run()
	if pool.Intents() != 0 || pool.Parked() != 0 || pool.Pinned() != 0 {
		t.Errorf("%d intents, %d parked and %d pins left", pool.Intents(), pool.Parked(), pool.Pinned())
	}
}

// FuzzGatedFetch draws interleavings of gated fetches, ungated fetches,
// grants, discards and cancels over a few pages and gates, then grants every
// gate. It checks that a page is read at most once per stay in the pool,
// that a granted or ungated reader's miss has the page in the pool before it
// parks, that every fetch returns — a gated one without the page only when
// its query was canceled — and that no intent, parked waiter or pin is left.
func FuzzGatedFetch(f *testing.F) {
	f.Add([]byte("\x00\x03\x00\x00\x01\x03\x05\x00"))
	f.Add([]byte("\x00\x03\x00\x00\x00\x03\x05\x01\x02\x00\x0a\x01\x01\x03\x0c\x00"))
	f.Add([]byte("\x00\x01\x00\x00\x00\x01\x00\x01\x00\x01\x00\x02\x02\x00\x14\x00\x02\x00\x14\x01\x03\x01\x40\x00\x00\x01\x50\x03"))
	f.Add([]byte("\x00\x02\x00\x00\x00\x02\x01\x01\x04\x00\x05\x00\x02\x00\x0a\x01"))
	seed := make([]byte, 4*48)
	for i := range seed {
		seed[i] = byte(i*29 + i/4)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		const pages, nGates = 6, 3
		if len(data) > 4*256 {
			data = data[:4*256]
		}
		env, dev, file, pool := newGateWorld(16)
		var gates [nGates]*testGate
		var ctls [nGates]*fault.Control
		for i := range gates {
			gates[i], ctls[i] = newTestGate(env), fault.NewControl(env)
		}
		discards := map[int64]int{}
		fetches, returned := 0, 0
		var last sim.Duration
		for i := 0; i+4 <= len(data); i += 4 {
			op, page := data[i]%5, int64(data[i+1])%pages
			at := sim.Duration(data[i+2]) * 10 * sim.Microsecond
			hold := sim.Duration(1+data[i+3]%32) * 10 * sim.Microsecond
			gi := int(data[i+3]) % nGates
			g, ctl := gates[gi], ctls[gi]
			last = max(last, at+hold)
			switch op {
			case 0, 1: // a fetch, through gate g or ungoverned
				fetches++
				gated := op == 0
				env.Go("fetch", func(p *sim.Proc) {
					p.Sleep(at)
					var h Handle
					var err error
					if granted := !gated || g.Admitted(); granted && !pool.Loaded(file, page) {
						env.Schedule(0, func() {
							if !pool.Contains(file, page) {
								t.Errorf("a granted reader of page %d parked with no read in flight", page)
							}
						})
					}
					if gated {
						h, err = pool.FetchGated(p, file, page, g, ctl)
					} else {
						h, err = pool.FetchPageE(p, file, page)
					}
					if errors.Is(err, ErrLeftGate) && ctl.Err() != nil {
						returned++
						return
					}
					if err != nil {
						t.Error(err)
						return
					}
					returned++
					p.Sleep(hold)
					h.Release()
				})
			case 2: // a grant
				env.Schedule(at, g.open)
			case 3: // a discard, when the page sits idle
				env.Schedule(at, func() {
					if pool.discard(file, page) {
						discards[page]++
					}
				})
			case 4: // gate g's query is canceled
				env.Schedule(at, func() { ctl.Cancel(nil) })
			}
		}
		// Every gate is granted in the end, so every waiter wakes.
		env.Schedule(last+sim.Millisecond, func() {
			for _, g := range gates {
				g.open()
			}
		})
		env.Run()
		if returned != fetches {
			t.Fatalf("%d of %d fetches returned", returned, fetches)
		}
		for pg := int64(0); pg < pages; pg++ {
			if dev.reads[pg] > 1+discards[pg] {
				t.Errorf("page %d read %d times over %d discards", pg, dev.reads[pg], discards[pg])
			}
		}
		if pool.Intents() != 0 || pool.Pinned() != 0 || pool.Parked() != 0 {
			t.Fatalf("%d intents, %d pins and %d parked waiters left", pool.Intents(), pool.Pinned(), pool.Parked())
		}
		for i, g := range gates {
			if g.parked != nil {
				t.Fatalf("gate %d still reports %d waiters", i, *g.parked)
			}
		}
	})
}
