package device

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"pioqo/internal/golden"
	"pioqo/internal/sim"
)

// The device-stream golden pins the device models' virtual-time behaviour
// exactly: one line per request — operation, offset, length, submit and
// completion time in ns — for seeded streams through every model, closing
// with each device's counters and queue-depth integral. A rewrite of the
// request path that moves one Schedule call before another, or changes one
// delay by a nanosecond, moves a section's digest.
//
// The rows (13 025 lines, 486 KB) are not checked in:
// testdata/devicestream.golden is a digest golden (internal/golden) with one
// section per device × stream — its request count and the SHA-256 of its
// rows — and each device's counters verbatim. -golden-rows <dir> writes the
// rows to <dir>/devicestream.rows, which reproduces, byte for byte, the file
// generated from the devices as they stood before the request path stopped
// allocating per request (closures, queue slices, list-backed LRU).
// Regenerate with -update only for a change that is meant to move a device's
// timing, and say so in the commit.

// streamDevices are the models the stream runs through; period is the time
// shift under which a model's behaviour repeats (a spindle's rotational
// position is read off the absolute clock).
var streamDevices = []struct {
	name   string
	period sim.Duration
	mk     func(*sim.Env) Device
}{
	{"ssd", 1, func(e *sim.Env) Device { return NewSSD(e, DefaultSSDConfig()) }},
	{"ssd-sata", 1, func(e *sim.Env) Device { return NewSSD(e, SATASSDConfig()) }},
	{"ssd-nvme", 1, func(e *sim.Env) Device { return NewSSD(e, NVMeSSDConfig()) }},
	{"hdd", rotation(DefaultHDDConfig()), func(e *sim.Env) Device { return NewHDD(e, DefaultHDDConfig()) }},
	{"raid0x8", rotation(HDD15KConfig()), newRAID8},
}

func rotation(cfg HDDConfig) sim.Duration { return sim.Duration(60e9 / float64(cfg.RPM)) }

// streamRow is one request of a stream.
type streamRow struct {
	op               byte // 'R' or 'W'
	offset           int64
	length           int
	submit, complete sim.Time
}

// streamLog issues requests against one device and keeps a row for each.
type streamLog struct {
	env  *sim.Env
	dev  Device
	rng  *rand.Rand
	rows []streamRow
	out  *golden.Digest
	name string // the device's name, which prefixes its sections
}

// issue submits one request; its row is completed from the request's first
// completion callback, so anything a stream registers afterwards runs second.
func (l *streamLog) issue(write bool, offset int64, length int) *sim.Completion {
	i := len(l.rows)
	l.rows = append(l.rows, streamRow{op: 'R', offset: offset, length: length, submit: l.env.Now(), complete: -1})
	var c *sim.Completion
	if write {
		l.rows[i].op = 'W'
		c = l.dev.WriteAt(offset, length)
	} else {
		c = l.dev.ReadAt(offset, length)
	}
	c.OnFire(func() { l.rows[i].complete = l.env.Now() })
	return c
}

// randomOffset draws a page-aligned offset with room for length bytes inside
// [base, base+band).
func (l *streamLog) randomOffset(base, band int64, length int) int64 {
	return base + l.rng.Int63n((band-int64(length))/page+1)*page
}

// drain runs the simulation until every request issued so far has completed
// and writes the rows since the last drain under a header, as the section
// the header names.
func (l *streamLog) drain(from int, format string, args ...interface{}) {
	l.env.Run()
	header := fmt.Sprintf(format, args...)
	fmt.Fprintf(l.out, "# %s\n", header)
	for _, r := range l.rows[from:] {
		l.out.Add(l.name+"/"+header, fmt.Sprintf("%c %d %d %d %d\n", r.op, r.offset, r.length, int64(r.submit), int64(r.complete)))
	}
}

// closedLoop runs depth workers, each waiting for one random 4 KiB read
// before issuing the next, for total reads over [base, base+band).
func (l *streamLog) closedLoop(base, band int64, depth, total int) {
	from, left := len(l.rows), total
	for w := 0; w < depth; w++ {
		l.env.Go(fmt.Sprintf("w%d", w), func(p *sim.Proc) {
			for left > 0 {
				left--
				p.Wait(l.issue(false, l.randomOffset(base, band, page), page))
			}
		})
	}
	l.drain(from, "closed loop depth=%d band=%d", depth, band)
}

// blocks reads n blocks of length bytes, stride apart, with depth workers
// taking the next block from a shared cursor.
func (l *streamLog) blocks(base int64, length int, stride int64, depth, n int) {
	from, next := len(l.rows), 0
	for w := 0; w < depth; w++ {
		l.env.Go(fmt.Sprintf("b%d", w), func(p *sim.Proc) {
			for next < n {
				off := base + int64(next)*stride
				next++
				p.Wait(l.issue(false, off, length))
			}
		})
	}
	l.drain(from, "blocks length=%d stride=%d depth=%d", length, stride, depth)
}

// mixed interleaves reads and writes of several sizes from eight workers.
func (l *streamLog) mixed(base, band int64, perWorker int) {
	from := len(l.rows)
	lengths := []int{page, page, 4 * page, 128 << 10, 256 << 10, 300 << 10}
	for w := 0; w < 8; w++ {
		l.env.Go(fmt.Sprintf("m%d", w), func(p *sim.Proc) {
			for i := 0; i < perWorker; i++ {
				length := lengths[l.rng.Intn(len(lengths))]
				write := l.rng.Intn(5) < 2
				p.Wait(l.issue(write, l.randomOffset(base, band, length), length))
			}
		})
	}
	l.drain(from, "reads and writes interleaved band=%d", band)
}

// burst submits n random reads at one instant and waits for them all.
func (l *streamLog) burst(base, band int64, n int) {
	from := len(l.rows)
	l.env.Go("burst", func(p *sim.Proc) {
		cs := make([]*sim.Completion, n)
		for i := range cs {
			cs[i] = l.issue(false, l.randomOffset(base, band, page), page)
		}
		p.WaitAll(cs)
	})
	l.drain(from, "burst of %d band=%d", n, band)
}

// chain issues reads from inside completion callbacks: each completed read
// submits the next, every fourth one two, while the device is still inside
// the event that completed it.
func (l *streamLog) chain(base, band int64, n int) {
	from, left := len(l.rows), n
	var next func()
	next = func() {
		if left == 0 {
			return
		}
		left--
		length := page
		if left%8 == 0 {
			length = 160 << 10 // three stripes of the SSD, and of the array
		}
		l.issue(false, l.randomOffset(base, band, length), length).OnFire(func() {
			next()
			if left%4 == 0 {
				next()
			}
		})
	}
	next()
	l.drain(from, "reads issued from completion callbacks band=%d", band)
}

// runStreams drives every stream shape, one after the other, over the region
// [base, base+span) of the log's device.
func (l *streamLog) runStreams(base, span int64) {
	for _, band := range []int64{32 << 20, 2 << 30, span} {
		for _, depth := range []int{1, 8, 32, 64} {
			l.closedLoop(base, band, depth, max(32, 6*depth))
		}
	}
	l.blocks(base+span/2, page, page, 1, 32)
	l.blocks(base, 256<<10, 256<<10, 1, 32)
	l.blocks(base+span/8, 256<<10, 256<<10, 4, 32)
	l.blocks(base+span/4, 256<<10, 1<<20, 2, 32)
	l.mixed(base, span, 24)
	l.burst(base, span, 200)
	l.chain(base, 2<<30, 96)
}

// TestDeviceStreamGolden runs every device's streams over its full capacity,
// then records its counters, twice.
func TestDeviceStreamGolden(t *testing.T) {
	golden.Twice(t, deviceStream).Check(t, filepath.Join("testdata", "devicestream.golden"))
}

func deviceStream() *golden.Digest {
	out := golden.NewDigest("# Device-stream digests; see devicestream_test.go. Per device × stream: requests and\n" +
		"# the SHA-256 of their rows (op offset length submit_ns complete_ns); then the device's counters.\n")
	for i, sd := range streamDevices {
		env := sim.NewEnv(int64(100 + i))
		l := &streamLog{env: env, dev: sd.mk(env), rng: rand.New(rand.NewSource(int64(200 + i))), out: out, name: sd.name}
		out.Note(fmt.Sprintf("## %s (%s)", sd.name, l.dev.Name()))
		l.runStreams(0, l.dev.Size())
		m := l.dev.Metrics()
		out.Note(fmt.Sprintf("# metrics requests=%d bytes=%d latency_ns=%d outstanding=%d depth_integral=%g (%016x) end_ns=%d",
			m.Requests, m.Bytes, int64(m.LatencySum), m.Outstanding(),
			m.DepthIntegral(), math.Float64bits(m.DepthIntegral()), int64(env.Now())))
	}
	return out
}

// TestDeviceStreamOnWarmDevice replays the streams on a device that has
// already served them once, over the other half of its capacity: whatever a
// device keeps between requests for reuse (request records, queue storage)
// is then warm and has been through every shape. The rows must be the fresh
// device's, shifted by the start time. Both sides begin with the same read
// at offset 0, which leaves every head on track 0, and start on a whole
// rotation; the warm-up's mapping pages are disjoint from the replay's, so
// the LRU hits and misses of the replay are the fresh device's too.
func TestDeviceStreamOnWarmDevice(t *testing.T) {
	for i, sd := range streamDevices {
		run := func(warm bool) (rows []streamRow, start sim.Time) {
			env := sim.NewEnv(int64(300 + i))
			l := &streamLog{env: env, dev: sd.mk(env), rng: rand.New(rand.NewSource(7)), out: golden.NewDigest("")}
			half := l.dev.Size() / 2
			if warm {
				l.runStreams(half, half)
			}
			env.Go("park heads", func(p *sim.Proc) {
				p.Wait(l.dev.ReadAt(0, 512<<10))
				p.Sleep(sd.period - sim.Duration(int64(env.Now())%int64(sd.period)))
			})
			env.Run()
			l.rng, l.rows, start = rand.New(rand.NewSource(8)), nil, env.Now()
			l.runStreams(0, half)
			return l.rows, start
		}
		var t0 sim.Time
		fresh := golden.Twice(t, func() (rows []streamRow) { rows, t0 = run(false); return rows })
		warm, t1 := run(true)
		if len(fresh) != len(warm) {
			t.Fatalf("%s: %d rows fresh, %d rows warm", sd.name, len(fresh), len(warm))
		}
		for j, f := range fresh {
			w := warm[j]
			w.submit, w.complete = w.submit-(t1-t0), w.complete-(t1-t0)
			if f != w {
				t.Fatalf("%s request %d: fresh %+v, warm (shifted by %d ns) %+v", sd.name, j, f, int64(t1-t0), w)
			}
		}
	}
}
