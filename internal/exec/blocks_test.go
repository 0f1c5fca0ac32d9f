package exec

import (
	"errors"
	"math"
	"testing"

	"pioqo/internal/buffer"
	"pioqo/internal/device"
	"pioqo/internal/disk"
	"pioqo/internal/fault"
	"pioqo/internal/sim"
	"pioqo/internal/table"
)

// landingDevice completes its i-th request lat[i mod len(lat)]·10 µs plus
// 10 µs after it is issued, so its reads land in whatever order lat names,
// and records the most it ever had outstanding.
type landingDevice struct {
	env          *sim.Env
	m            *device.Metrics
	lat          []byte
	n, out, most int
}

func (d *landingDevice) ReadAt(offset int64, length int) *sim.Completion {
	c := sim.NewCompletion(d.env)
	delay := sim.Duration(1+int(d.lat[d.n%len(d.lat)])) * 10 * sim.Microsecond
	d.n++
	d.out++
	d.most = max(d.most, d.out)
	d.env.Schedule(delay, func() {
		d.out--
		c.Fire()
	})
	return c
}

func (d *landingDevice) WriteAt(offset int64, length int) *sim.Completion {
	return d.ReadAt(offset, length)
}
func (d *landingDevice) Size() int64              { return 1 << 40 }
func (d *landingDevice) Name() string             { return "landing" }
func (d *landingDevice) Metrics() *device.Metrics { return d.m }

// landingContext is a context over a fresh landingDevice.
func landingContext(lat []byte, poolPages, cores int) (*Context, *landingDevice) {
	env := sim.NewEnv(1)
	dev := &landingDevice{env: env, m: device.NewMetrics(env), lat: lat}
	return &Context{
		Env:     env,
		CPU:     sim.NewResource(env, "cpu", cores),
		Pool:    buffer.NewPool(env, poolPages),
		Dev:     dev,
		Costs:   DefaultCPUCosts(),
		Scratch: &Scratch{},
	}, dev
}

// FuzzBlockClaims draws the order a full scan's reads land in, the degree,
// trimmed readahead or not (CoordPrefetch), the pool size (small pools
// clamp the block and the window, or turn block reads off) and a deadline. Every row is evaluated exactly once — at most
// once when the deadline aborts the scan — the device never holds more
// reads than ReadaheadWindow's in-flight count, the simulation drains with
// no worker parked (a worker left waiting for a landing that never comes
// is a deadlock, which Run reports), and no pin or process is left behind.
func FuzzBlockClaims(f *testing.F) {
	f.Add([]byte{0}, uint16(8), uint16(1024), uint16(0), uint16(700))
	f.Add([]byte{40, 0, 0, 0, 0, 3}, uint16(8), uint16(4096), uint16(0), uint16(640))
	f.Add([]byte{9, 1, 7, 3, 5}, uint16(3), uint16(100), uint16(150), uint16(333))
	f.Add([]byte{2, 200, 1}, uint16(16), uint16(20), uint16(0), uint16(90))
	f.Fuzz(func(t *testing.T, lat []byte, degree, pool, deadline, pages uint16) {
		if len(lat) == 0 {
			lat = []byte{0}
		}
		const rpp = 4
		d, capacity, npages := 1+int(degree%16), 16+int(pool%2048), 1+int64(pages%700)
		ctx, dev := landingContext(lat, capacity, 8)
		tab := table.NewMaterialized(disk.NewManager(dev), "t", npages*rpp, rpp, 7)
		seen := make([]int, tab.Rows())
		spec := Spec{Table: tab, Lo: math.MinInt64, Hi: math.MaxInt64, Method: FullScan, Degree: d,
			Emit: func(rowID int64, _ table.Row) { seen[rowID]++ }, CoordPrefetch: degree&16 != 0}
		if deadline > 0 {
			spec.Ctl = fault.NewControl(ctx.Env)
			spec.Ctl.SetDeadline(sim.Time(deadline) * sim.Time(sim.Microsecond))
		}
		res := Execute(ctx, spec)

		if res.Err != nil && !errors.Is(res.Err, fault.ErrDeadlineExceeded) {
			t.Fatalf("scan failed: %v", res.Err)
		}
		for id, n := range seen {
			if n > 1 || n == 0 && res.Err == nil {
				t.Fatalf("row %d evaluated %d times (err %v)", id, n, res.Err)
			}
		}
		if _, window := ReadaheadWindow(capacity, d); dev.most > window {
			t.Errorf("pool %d, degree %d: %d reads outstanding, the window is %d", capacity, d, dev.most, window)
		}
		if n, pins := ctx.Env.LiveProcs(), ctx.Pool.Pinned(); n != 0 || pins != 0 {
			t.Errorf("drained with %d live processes and %d pins", n, pins)
		}
	})
}

// TestLandedBlockIsClaimedWithoutYielding: once the first window has
// landed, a worker claims every page of it — five blocks — without
// yielding: an event due at that instant has not run when it is done, and
// its budget counts no wait.
func TestLandedBlockIsClaimedWithoutYielding(t *testing.T) {
	w := newWorld(t, worldOpts{rows: 33 * disk.BlockPages * 12, rpp: 33})
	spec := w.spec(FullScan, 1, 0, math.MaxInt64).withDefaults()
	w.env.Go("scan", func(p *sim.Proc) {
		c := newBlockClaims(w.ctx, &spec)
		p.Sleep(10 * sim.Millisecond)
		wk := &worker{p: p, bud: newBudget(w.ctx, &spec, "")}
		yielded := false
		w.env.Schedule(0, func() { yielded = true })
		for n := range c.window * c.blockPages {
			if _, ok := c.claim(wk); !ok {
				t.Fatalf("claim %d found no page", n)
			}
		}
		if yielded || wk.bud.io != 0 {
			t.Errorf("claiming %d landed blocks yielded: %v, waited %v", c.window, yielded, wk.bud.io)
		}
		for { // hand out the rest, so that the scan drains
			if _, ok := c.claim(wk); !ok {
				break
			}
		}
	})
	w.env.Run()
}

// flatDevice completes every request 100 µs after it is issued and
// allocates the same for each: its completion and the bound Fire.
type flatDevice struct {
	env *sim.Env
	m   *device.Metrics
}

func (d flatDevice) ReadAt(int64, int) *sim.Completion {
	c := sim.NewCompletion(d.env)
	d.env.Schedule(100*sim.Microsecond, c.Fire)
	return c
}
func (d flatDevice) WriteAt(offset int64, length int) *sim.Completion {
	return d.ReadAt(offset, length)
}
func (d flatDevice) Size() int64              { return 1 << 40 }
func (d flatDevice) Name() string             { return "flat" }
func (d flatDevice) Metrics() *device.Metrics { return d.m }

// TestFullScanAllocatesNothingPerBlock is the allocation gate on the claim
// loop: a cold PFTS8 over 2N blocks allocates what one over N does plus N
// block reads, each what a bare ReadAhead and its landing cost (the device's
// completion and event, the pool's load callback). The claims, the waits
// and the window's refills allocate nothing per block.
func TestFullScanAllocatesNothingPerBlock(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation allocates on its own account")
	}
	const n = 8
	env := sim.NewEnv(1)
	dev := flatDevice{env, device.NewMetrics(env)}
	m := disk.NewManager(dev)
	short := table.NewMaterialized(m, "short", n*disk.BlockPages*33, 33, 7)
	long := table.NewMaterialized(m, "long", 2*n*disk.BlockPages*33, 33, 7)
	ctx := &Context{Env: env, CPU: sim.NewResource(env, "cpu", 8), Pool: buffer.NewPool(env, 4096),
		Dev: dev, Costs: DefaultCPUCosts(), Scratch: &Scratch{}}

	var perBlock float64
	env.Go("block", func(p *sim.Proc) {
		landed, next := func() {}, int64(0)
		perBlock = testing.AllocsPerRun(5, func() {
			p.Wait(ctx.Pool.ReadAhead(long.File(), next, disk.BlockPages, false, landed))
			next += disk.BlockPages
		})
	})
	env.Run()

	scan := func(tab table.Table) float64 {
		spec := Spec{Table: tab, Lo: math.MinInt64, Hi: math.MaxInt64, Method: FullScan, Degree: 8}
		return testing.AllocsPerRun(5, func() {
			ctx.Pool.Flush()
			Execute(ctx, spec)
		})
	}
	a, b := scan(short), scan(long)
	if b-a != n*perBlock {
		t.Errorf("PFTS8 over %d blocks: %v allocations, over %d: %v; want %v more, %v a block read",
			n, a, 2*n, b, n*perBlock, perBlock)
	}
}

// failingDevice fails every read of one byte offset.
type failingDevice struct {
	device.Device
	env *sim.Env
	bad int64
}

func (d *failingDevice) ReadAt(offset int64, length int) *sim.Completion {
	if offset != d.bad {
		return d.Device.ReadAt(offset, length)
	}
	c := sim.NewCompletion(d.env)
	d.env.Schedule(100*sim.Microsecond, func() { c.Fail(fault.ErrDeviceFault) })
	return c
}

// TestWindDownLeavesNoReadInAReusedSet fails every read of one heap page
// under IS4 scans with eight prefetches a worker: the page's prefetch
// fails, and so does the read its worker then issues itself, which stops
// that worker mid-window. A worker record goes back to the node's Scratch
// with its prefetch set, so the set must come back empty: no read of the
// window still in flight, no landing the worker did not wait for.
func TestWindDownLeavesNoReadInAReusedSet(t *testing.T) {
	for _, bad := range []int64{40, 41, 97, 150, 151, 152, 303} {
		var dev *failingDevice
		w := newWorld(t, worldOpts{rows: 20000, rpp: 33, wrap: func(d device.Device) device.Device {
			dev = &failingDevice{Device: d}
			return dev
		}})
		dev.env, dev.bad = w.env, w.tab.File().Offset(bad)
		w.ctx.Scratch = &Scratch{}
		spec := faultArm{"IS-pf8", IndexScan, 8}.spec(w, 4, 0, 19999, fault.NewControl(w.env))
		spec.Retry = fault.RetryPolicy{MaxAttempts: 1}
		if res := Execute(w.ctx, spec); !errors.Is(res.Err, fault.ErrDeviceFault) {
			t.Fatalf("page %d: err %v, want the device fault", bad, res.Err)
		}
		assertClean(t, w)
		for i, rec := range w.ctx.Scratch.free {
			if rec.inFlight != nil && rec.inFlight.Len() != 0 {
				t.Errorf("page %d: record %d keeps a set of %d (%d pending)", bad, i, rec.inFlight.Len(), rec.inFlight.Pending())
			}
		}
	}
}
