package buffer

import (
	"testing"

	"pioqo/internal/device"
	"pioqo/internal/disk"
	"pioqo/internal/sim"
)

// testGate is a Gate the test grants by hand.
type testGate struct {
	grant  *sim.Completion
	passed int // Admit calls: reads made under the grant
}

func newTestGate(env *sim.Env) *testGate { return &testGate{grant: sim.NewCompletion(env)} }

func (g *testGate) Admitted() bool    { return g.grant.Fired() }
func (g *testGate) OnAdmit(fn func()) { g.grant.OnFire(fn) }
func (g *testGate) Admit(p *sim.Proc) { p.Wait(g.grant); g.passed++ }
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
// page. None reads it: they park on one intent. The second one's grant reads
// it, once, for all three; the others finish without passing their gates,
// and their later grants read nothing.
func TestIntentReadAtFirstGrant(t *testing.T) {
	env, dev, file, pool := newGateWorld(16)
	gates := []*testGate{newTestGate(env), newTestGate(env), newTestGate(env)}
	var done []sim.Time
	for _, g := range gates {
		g := g
		env.Go("q", func(p *sim.Proc) {
			h, err := pool.FetchGated(p, file, 5, g)
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
	if pool.Intents() != 0 || pool.Pinned() != 0 {
		t.Errorf("%d intents and %d pins left", pool.Intents(), pool.Pinned())
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
		h, err := pool.FetchGated(p, file, 7, queued)
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
		h, err := pool.FetchGated(p, file, 7, granted)
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

// FuzzGatedFetch draws interleavings of gated fetches, ungated fetches,
// grants and discards over a few pages and gates, then grants every gate.
// It checks that a page is read at most once per stay in the pool, that a
// granted or ungated reader's miss has the page in the pool before it
// parks, that every fetch returns, and that no intent or pin is left.
func FuzzGatedFetch(f *testing.F) {
	f.Add([]byte("\x00\x03\x00\x00\x01\x03\x05\x00"))
	f.Add([]byte("\x00\x03\x00\x00\x00\x03\x05\x01\x02\x00\x0a\x01\x01\x03\x0c\x00"))
	f.Add([]byte("\x00\x01\x00\x00\x00\x01\x00\x01\x00\x01\x00\x02\x02\x00\x14\x00\x02\x00\x14\x01\x03\x01\x40\x00\x00\x01\x50\x03"))
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
		for i := range gates {
			gates[i] = newTestGate(env)
		}
		discards := map[int64]int{}
		fetches, returned := 0, 0
		var last sim.Duration
		for i := 0; i+4 <= len(data); i += 4 {
			op, page := data[i]%4, int64(data[i+1])%pages
			at := sim.Duration(data[i+2]) * 10 * sim.Microsecond
			hold := sim.Duration(1+data[i+3]%32) * 10 * sim.Microsecond
			g := gates[int(data[i+3])%nGates]
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
						h, err = pool.FetchGated(p, file, page, g)
					} else {
						h, err = pool.FetchPageE(p, file, page)
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
					if pool.Discard(file, page) {
						discards[page]++
					}
				})
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
		if pool.Intents() != 0 || pool.Pinned() != 0 {
			t.Fatalf("%d intents and %d pins left", pool.Intents(), pool.Pinned())
		}
	})
}
