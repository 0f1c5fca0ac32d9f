package device

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"pioqo/internal/sim"
)

// dispatchCheck holds an HDD to its dispatch rule at every dispatch: the
// request it starts is the first of those with the least access time among
// the first QueueDepthMax queued — or, when that one costs any access, the
// block read (longer than a page) among them that ends where it starts,
// followed back through such blocks to the first — that access time is what
// the request is then charged (it completes after exactly access plus
// transfer), and the access time is the one the drive's geometry gives,
// worked out here from the configuration alone.
//
// A completion's callbacks run inside the drive's finish, after the head has
// settled on the finished request's track and before the next dispatch, so
// each callback predicts the dispatch that follows it; a read issued to an
// idle drive is the only request it can start.
type dispatchCheck struct {
	tb testing.TB
	d  *HDD

	next   *sim.Completion // the request the drive must complete next
	nextAt sim.Time        // and when
	done   int
}

func newDispatchCheck(tb testing.TB, d *HDD) *dispatchCheck {
	return &dispatchCheck{tb: tb, d: d}
}

// read issues a request and registers the check on its completion.
func (c *dispatchCheck) read(offset int64, length int) *sim.Completion {
	idle := !c.d.busy
	done := c.d.ReadAt(offset, length)
	if idle {
		c.expect(true)
	}
	done.OnFire(func() { c.completed(done) })
	return done
}

// completed checks the request that just finished and predicts the next.
func (c *dispatchCheck) completed(done *sim.Completion) {
	c.done++
	now := c.d.env.Now()
	if done != c.next || now != c.nextAt {
		c.tb.Fatalf("completion %d at %v: not the request predicted to finish at %v", c.done, now, c.nextAt)
	}
	c.next = nil
	if len(c.d.queue) > 0 {
		c.expect(false)
	}
}

// expect works out which queued request the drive starts now and when it
// ends. fresh is a dispatch from ReadAt to an idle drive, which has already
// taken its only request off the queue.
func (c *dispatchCheck) expect(fresh bool) {
	d := c.d
	now := d.env.Now()
	phase := sim.Duration(int64(now) % int64(d.revTime))
	window := d.queue[:min(len(d.queue), d.cfg.QueueDepthMax)]
	if fresh {
		window = []hddRequest{d.current}
	}
	best := 0
	for i := range window {
		got, want := d.access(&window[i], phase), c.reference(&window[i], now)
		if diff := got - want; diff < -1 || diff > 1 {
			c.tb.Fatalf("request at %d: ranked at access %v, the geometry gives %v", window[i].offset, got, want)
		}
		if got < d.access(&window[best], phase) {
			best = i
		}
	}
	for d.access(&window[best], phase) > 0 {
		prev := -1
		for i := range window {
			if window[i].length > page && window[i].offset+int64(window[i].length) == window[best].offset {
				prev = i
				break
			}
		}
		if prev < 0 {
			break
		}
		best = prev
	}
	r := window[best]
	c.next, c.nextAt = r.done, now.Add(d.access(&r, phase)+d.transferTime(r.length))
}

// reference is the access time to r from the head's position at now: no
// positioning for the read that continues the last one (the track cache),
// else the square-root seek, then the wait until r's first byte, at its
// fraction of a revolution along the track, comes round under the head.
func (c *dispatchCheck) reference(r *hddRequest, now sim.Time) sim.Duration {
	cfg, d := c.d.cfg, c.d
	if r.offset == d.lastEnd {
		return 0
	}
	var seek sim.Duration
	if dist := math.Abs(float64(r.offset/cfg.TrackBytes - d.headTrack)); dist > 0 {
		seek = cfg.SeekSettle + sim.Duration(float64(cfg.SeekFullStroke)*math.Sqrt(dist/float64(d.totalTracks)))
	}
	rev := float64(d.revTime)
	sector := float64(r.offset%cfg.TrackBytes) / float64(cfg.TrackBytes) * rev
	under := float64(int64(now.Add(seek)) % int64(d.revTime))
	return seek + sim.Duration(math.Mod(sector-under+rev, rev))
}

// TestHDDDispatchesShortestAccessTime checks every dispatch of closed loops
// of 32 random page reads, on one track's worth of band, a 64 MiB band and
// the whole drive, and of a loop of sequential block reads the track cache
// serves.
func TestHDDDispatchesShortestAccessTime(t *testing.T) {
	for _, band := range []int64{1 << 20, 64 << 20, DefaultHDDConfig().Capacity} {
		env := sim.NewEnv(5)
		d := NewHDD(env, DefaultHDDConfig())
		check := newDispatchCheck(t, d)
		for w := 0; w < 32; w++ {
			env.Go(fmt.Sprintf("w%d", w), func(p *sim.Proc) {
				for i := 0; i < 40; i++ {
					p.Wait(check.read(env.Rand().Int63n(band/page)*page, page))
				}
			})
		}
		env.Go("seq", func(p *sim.Proc) {
			for off := int64(0); off < 64<<20; off += 256 << 10 {
				p.Wait(check.read(off, 256<<10))
			}
		})
		env.Run()
		if check.done != 32*40+256 {
			t.Errorf("band %d: %d reads checked, want %d", band, check.done, 32*40+256)
		}
	}
}

// TestHDDStreamsAdjacentBlocksInOrder: a scan keeps two adjacent 64-page
// blocks queued while four closed loops of random page reads keep the head
// busy. When both blocks wait as the head frees, the drive must read the
// first before the second, which then streams from the track cache: taking
// the rotationally nearer second block first costs the first most of a
// revolution, and the scan then falls into reading its blocks in swapped
// pairs. Every block completes in scan order, and every dispatch is checked.
func TestHDDStreamsAdjacentBlocksInOrder(t *testing.T) {
	const block, blocks = 64 * page, 96
	env := sim.NewEnv(3)
	d := NewHDD(env, DefaultHDDConfig())
	check := newDispatchCheck(t, d)
	streaming := true
	for w := 0; w < 4; w++ {
		env.Go(fmt.Sprintf("w%d", w), func(p *sim.Proc) {
			for streaming {
				p.Wait(check.read(256<<20+env.Rand().Int63n((64<<20)/page)*page, page))
			}
		})
	}
	var order []int64
	env.Go("scan", func(p *sim.Proc) {
		var inFlight []*sim.Completion
		for b := int64(0); b < blocks; b++ {
			off := b * block
			c := check.read(off, block)
			c.OnFire(func() { order = append(order, off) })
			if inFlight = append(inFlight, c); len(inFlight) == 2 {
				p.Wait(inFlight[0])
				inFlight = inFlight[1:]
			}
		}
		p.Wait(inFlight[0])
		streaming = false
	})
	env.Run()
	if len(order) != blocks {
		t.Fatalf("%d of %d blocks read", len(order), blocks)
	}
	swapped := 0
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			swapped++
		}
	}
	if swapped > 0 {
		t.Errorf("%d of %d blocks were read after the block behind them", swapped, blocks)
	}
}

// TestHDDWaitAtQD32BoundedByLOOK holds the cost of ordering the queue by
// access time: a request the drive keeps passing over waits longer, and a
// closed loop of 32 random page reads shows how much longer. The seek-only
// LOOK elevator this scheduler replaced, run on the same loops (4 000 reads
// from seed 12345), made a read wait at most 1 220 ms on the whole drive and
// 580 ms in a 64 MiB band, 211 and 141 ms on average. Access-time ordering
// must lower the mean and hold the longest wait within a tenth of LOOK's.
func TestHDDWaitAtQD32BoundedByLOOK(t *testing.T) {
	for _, c := range []struct {
		band          int64
		lookMean, max sim.Duration
	}{
		{DefaultHDDConfig().Capacity, 211 * sim.Millisecond, 1220 * sim.Millisecond},
		{64 << 20, 141 * sim.Millisecond, 580 * sim.Millisecond},
	} {
		env := sim.NewEnv(12345)
		d := NewHDD(env, DefaultHDDConfig())
		var worst, sum sim.Duration
		n := 0
		for w := 0; w < 32; w++ {
			env.Go(fmt.Sprintf("w%d", w), func(p *sim.Proc) {
				for i := 0; i < 4000/32; i++ {
					start := env.Now()
					p.Wait(d.ReadAt(env.Rand().Int63n(c.band/page)*page, page))
					wait := sim.Duration(env.Now() - start)
					worst, sum, n = max(worst, wait), sum+wait, n+1
				}
			})
		}
		env.Run()
		if mean := sum / sim.Duration(n); mean >= c.lookMean {
			t.Errorf("band %d: mean wait %v, want below LOOK's %v", c.band, mean, c.lookMean)
		}
		if limit := c.max + c.max/10; worst > limit {
			t.Errorf("band %d: a read waited %v, want at most %v (LOOK's longest %v plus a tenth)", c.band, worst, limit, c.max)
		}
	}
}

// FuzzHDDDispatch drives the drive with a stream the fuzzer shapes and
// checks every dispatch: each 8 bytes are one request — where it starts
// (within a band the first byte picks, or right where the previous request
// ended, to reach the track cache), how many pages it reads, and how long
// after the previous one it is issued. Nothing waits for a completion, so
// the queue grows past the NCQ window whenever the gaps are short.
func FuzzHDDDispatch(f *testing.F) {
	f.Add([]byte("\x00\x01\x02\x03\x04\x05\x06\x07\x10\x20\x30\x40\x50\x60\x70\x80"))
	f.Add([]byte("\xff\xfe\xfd\xfc\xfb\xfa\xf9\xf8\x80\x00\x00\x01\x00\x00\x00\x00\x81\x00\x00\x01\x00\x00\x00\x00"))
	seed := make([]byte, 8*64)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 8*512 {
			data = data[:8*512]
		}
		env := sim.NewEnv(1)
		d := NewHDD(env, DefaultHDDConfig())
		check := newDispatchCheck(t, d)
		n := len(data) / 8
		env.Go("stream", func(p *sim.Proc) {
			end := int64(0)
			for i := 0; i < n; i++ {
				b := data[8*i : 8*i+8]
				pages := 1 + int64(b[1]%16)
				off := end
				if b[0]&0x80 == 0 {
					bandPages := int64(1) << (8 + b[0]%18) // 1 MiB up to 128 GiB, capped at the drive
					bandPages = min(bandPages, d.Size()/page)
					off = int64(binary.LittleEndian.Uint32(b[2:6])) % (bandPages - pages + 1) * page
				}
				if off+pages*page > d.Size() {
					off = 0
				}
				p.Sleep(sim.Duration(binary.LittleEndian.Uint16(b[6:8])) * sim.Microsecond / 8)
				check.read(off, int(pages*page))
				end = off + pages*page
			}
		})
		env.Run()
		if check.done != n {
			t.Fatalf("%d of %d requests completed", check.done, n)
		}
		if m := d.Metrics().Snapshot(); m.Requests != int64(n) {
			t.Fatalf("metrics count %d requests, want %d", m.Requests, n)
		}
	})
}
