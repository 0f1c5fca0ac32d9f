package exec

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"pioqo/internal/device"
	"pioqo/internal/obs"
	"pioqo/internal/sim"
)

// TestIndexFleetKeepsItsDepth runs cold index scans on the HDD with twenty
// reads a worker. Workers that claim entries from one cursor keep the
// device's queue at their degree until the range runs out, so the
// time-averaged depth stays within 15 % of the degree, and they leave
// together: once the first finds the cursor empty, the others each hold one
// read, so the last exits at most degree − 1 depth-1 reads later. Static
// per-worker chunks fail both: they finish unevenly and the queue thins
// behind them (0.78–0.84 of the degree, exits 0.14–0.64 s apart).
func TestIndexFleetKeepsItsDepth(t *testing.T) {
	const lo = 123_457
	for _, degree := range []int{8, 32} {
		rows := int64(20 * degree)
		w := newWorld(t, worldOpts{dev: "hdd", rows: 400_000, rpp: 33, poolPages: 8192})
		w.ctx.Obs = obs.NewRegistry(w.env)
		w.ctx.Obs.EnableEvents(0)
		res := Execute(w.ctx, w.spec(IndexScan, degree, lo, lo+rows-1))
		var exits []sim.Time
		for _, e := range w.ctx.Obs.Log().Events() {
			if e.Type == obs.EvWorkerExit {
				exits = append(exits, e.At)
			}
		}
		if len(exits) != degree {
			t.Fatalf("degree %d: %d workers exited", degree, len(exits))
		}
		spread := sim.Duration(exits[len(exits)-1] - exits[0])

		// A depth-1 read on the same range: the lone worker's mean latency.
		w.ctx.Pool.Flush()
		serial := Execute(w.ctx, w.spec(IndexScan, 1, lo, lo+rows-1))
		read := serial.IO.AvgLatency

		t.Logf("degree %d, %d rows: %v, queue depth %.2f, exits %v apart, depth-1 read %v",
			degree, res.RowsMatched, res.Runtime, res.IO.AvgQueueDepth, spread, read)
		if res.RowsMatched < 8*int64(degree) {
			t.Fatalf("degree %d: %d rows, under 8 reads a worker", degree, res.RowsMatched)
		}
		if min := 0.85 * float64(degree); res.IO.AvgQueueDepth < min {
			t.Errorf("degree %d: time-averaged queue depth %.2f, want at least %.2f",
				degree, res.IO.AvgQueueDepth, min)
		}
		if limit := sim.Duration(degree-1) * read; spread > limit {
			t.Errorf("degree %d: first and last worker exits %v apart, more than %d depth-1 reads (%v)",
				degree, spread, degree-1, limit)
		}
	}
}

// TestScheduleRowsWithoutAnIndexFleet pins the schedule.golden rows that
// run no index-scan fleet of more than one worker — full scans, degree-1
// index scans, updates, gathers, shared riders, nested-loop joins — to one
// digest, so that a later -update of the golden cannot move them unseen. The
// index fleet's claim cursor moved none of them. Reading a range's leaves in
// one run (leafRun) moved the twelve that read an index range over more than
// one leaf: the nested-loop joins, the ordered gather and the index-located
// updates, on both devices. Claiming readahead blocks in the order they land
// (blockClaims) moved the 28 that run a full scan.
func TestScheduleRowsWithoutAnIndexFleet(t *testing.T) {
	const want = "942db60beabf103ea0c97a998440e745b4a4478dbb11841d26093139c582b839"
	data, err := os.ReadFile(filepath.Join("testdata", "schedule.golden"))
	if err != nil {
		t.Fatal(err)
	}
	fleet := regexp.MustCompile(`^(ssd|hdd)/[^ ]*(pis-|hashjoin)`)
	var kept strings.Builder
	n := 0
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if line != "" && !fleet.MatchString(line) {
			kept.WriteString(line)
			n++
		}
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(kept.String()))); got != want || n != 38 {
		t.Errorf("%d rows without an index fleet hash to %s, want 38 rows hashing to %s", n, got, want)
	}
}

// depthProbe integrates the device's queue depth over virtual time and
// marks the integral at every completion.
type depthProbe struct {
	device.Device
	env   *sim.Env
	out   int
	last  sim.Time
	area  float64    // ∫ reads outstanding dt, in read·ns
	marks []float64  // area at each completion
	at    []sim.Time // time of each completion

	from        int64    // reads of offsets below it start the average
	start       sim.Time // the first of them
	startArea   float64  // the area then
	startMarked int      // completions before it
	started     bool
}

func (d *depthProbe) account() {
	now := d.env.Now()
	d.area += float64(d.out) * float64(now-d.last)
	d.last = now
}

func (d *depthProbe) ReadAt(offset int64, length int) *sim.Completion {
	d.account()
	if !d.started && offset < d.from {
		d.started, d.start, d.startArea, d.startMarked = true, d.env.Now(), d.area, len(d.marks)
	}
	d.out++
	c := d.Device.ReadAt(offset, length)
	c.OnFire(func() {
		d.account()
		d.out--
		d.marks = append(d.marks, d.area)
		d.at = append(d.at, d.env.Now())
	})
	return c
}

// meanWhile reports the time-averaged queue depth from the first read
// below from until the completion that leaves fewer than keep reads to go.
func (d *depthProbe) meanWhile(keep int) float64 {
	k := len(d.marks) - keep - 1
	return (d.marks[k] - d.startArea) / float64(d.at[k]-d.start)
}

// TestPrefetchingWorkerKeepsItsDepth runs a cold IS1 with 32 prefetches
// a worker on the HDD over 368 index entries of a one-row-a-page heap,
// every row its own read, the range starting at a leaf's first entry.
// The worker evaluates whichever page of its window lands first and then
// issues the next, so the device holds the window's 32 reads — at least
// 28 on average while 32 or more remain. Blocking on the window's oldest
// page kept far fewer: a disk that orders its queue by access time passes
// that read over, and the window stops refilling behind it.
func TestPrefetchingWorkerKeepsItsDepth(t *testing.T) {
	var probe *depthProbe
	w := newWorld(t, worldOpts{dev: "hdd", rows: 400_000, rpp: 1, poolPages: 8192,
		wrap: func(d device.Device) device.Device {
			probe = &depthProbe{Device: d}
			return probe
		}})
	probe.env, probe.from = w.env, w.idx.File().Offset(0)
	// Entries [50 000, 50 368): two leaves, the first from its start.
	keys := w.idx.EntriesAt(50_000, 368, nil)
	lo, hi := keys[0].Key, keys[len(keys)-1].Key
	spec := w.spec(IndexScan, 1, lo, hi)
	spec.PrefetchPerWorker = 32
	res := Execute(w.ctx, spec)
	mean := probe.meanWhile(32)
	t.Logf("%d rows in %v, %d reads, mean depth %.2f while 32 remain", res.RowsMatched, res.Runtime, len(probe.marks), mean)
	if max, _, rows := w.bruteForce(lo, hi); res.RowsMatched != rows || res.Value != max {
		t.Fatalf("MAX %d over %d rows, want %d over %d", res.Value, res.RowsMatched, max, rows)
	}
	if mean < 28 {
		t.Errorf("IS1/pf32 kept %.2f reads in the device while 32 or more remained, want at least 28", mean)
	}
}
