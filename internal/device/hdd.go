package device

import (
	"fmt"
	"math"
	"slices"

	"pioqo/internal/sim"
)

// HDDConfig describes a single-spindle hard disk drive. The zero value is
// not usable; start from DefaultHDDConfig.
type HDDConfig struct {
	// Capacity is the device size in bytes.
	Capacity int64

	// RPM is the spindle speed; it fixes the rotation period.
	RPM int

	// TrackBytes is the (simplified, constant) number of bytes per track.
	TrackBytes int64

	// SeekSettle is the head settle time charged on any track change.
	SeekSettle sim.Duration

	// SeekFullStroke is the seek time across the whole platter. Seeks over
	// d tracks cost SeekSettle + SeekFullStroke·sqrt(d/totalTracks), the
	// classic square-root seek curve.
	SeekFullStroke sim.Duration

	// MediaMBps is the sustained media transfer rate in MB/s (1e6 bytes).
	MediaMBps float64

	// QueueDepthMax is how many queued requests the drive examines when
	// picking the next request to service (models NCQ depth).
	QueueDepthMax int

	// ReadaheadWindow is the track-cache readahead window: a read that
	// starts exactly where the previous one ended, within this many bytes,
	// is served at media rate with no mechanical positioning.
	ReadaheadWindow int
}

// DefaultHDDConfig models the paper's commodity 7200 RPM drive:
// ~110 MB/s sequential, ~85 IOPS random 4 KB at queue depth 1, and a
// throughput gain at higher queue depths from access-time ordering (the
// paper measures random reads at queue depth 32 reaching only ~1.3% of
// sequential throughput).
func DefaultHDDConfig() HDDConfig {
	return HDDConfig{
		Capacity:        64 << 30, // 64 GiB of addressable test area
		RPM:             7200,
		TrackBytes:      1 << 20, // 1 MiB tracks
		SeekSettle:      500 * sim.Microsecond,
		SeekFullStroke:  16 * sim.Millisecond,
		MediaMBps:       110,
		QueueDepthMax:   32,
		ReadaheadWindow: 4 << 20,
	}
}

// HDD is a mechanistic single-spindle disk: one head, square-root seek
// curve, rotational positioning derived from the virtual clock, a
// shortest-access-time-first (SATF) scheduler over the device queue, and a
// track cache that streams sequential reads at media rate.
type HDD struct {
	env     *sim.Env
	cfg     HDDConfig
	name    string
	metrics *Metrics

	revTime     sim.Duration
	totalTracks int64

	busy      bool
	headTrack int64
	queue     []hddRequest
	blocks    int   // queued requests longer than a page (blockBefore)
	lastEnd   int64 // end offset of the previous request, for readahead

	// current is the request under the head. Its service ends in the one
	// event callback the disk ever schedules, bound at construction, so a
	// request allocates its completion and nothing else.
	current     hddRequest
	serviceDone func() // = finish
}

type hddRequest struct {
	offset int64
	length int
	track  int64
	// angle is where the request's first byte sits on its track, as the
	// time into a revolution at which it passes under the head.
	angle     sim.Duration
	submitted sim.Time
	done      *sim.Completion
}

// NewHDD returns a disk built from cfg, bound to e.
func NewHDD(e *sim.Env, cfg HDDConfig) *HDD {
	if cfg.Capacity <= 0 || cfg.TrackBytes <= 0 || cfg.RPM <= 0 || cfg.MediaMBps <= 0 {
		panic("device: invalid HDD config")
	}
	if cfg.QueueDepthMax <= 0 {
		cfg.QueueDepthMax = 1
	}
	d := &HDD{
		env:         e,
		cfg:         cfg,
		name:        fmt.Sprintf("hdd-%drpm", cfg.RPM),
		metrics:     NewMetrics(e),
		revTime:     sim.Duration(60e9 / float64(cfg.RPM)),
		totalTracks: (cfg.Capacity + cfg.TrackBytes - 1) / cfg.TrackBytes,
		lastEnd:     -1,
	}
	d.serviceDone = d.finish
	return d
}

// Name implements Device.
func (d *HDD) Name() string { return d.name }

// Size implements Device.
func (d *HDD) Size() int64 { return d.cfg.Capacity }

// Metrics implements Device.
func (d *HDD) Metrics() *Metrics { return d.metrics }

// WriteAt implements Device. Spinning media pays the same mechanical costs
// writing as reading: the request joins the same queue.
func (d *HDD) WriteAt(offset int64, length int) *sim.Completion {
	return d.ReadAt(offset, length)
}

// ReadAt implements Device.
func (d *HDD) ReadAt(offset int64, length int) *sim.Completion {
	validate(d, offset, length)
	done := sim.NewCompletion(d.env)
	d.metrics.Submitted()
	if length > pageBytes {
		d.blocks++
	}
	d.queue = append(d.queue, hddRequest{
		offset:    offset,
		length:    length,
		track:     d.track(offset),
		angle:     sim.Duration(float64(offset%d.cfg.TrackBytes) / float64(d.cfg.TrackBytes) * float64(d.revTime)),
		submitted: d.env.Now(),
		done:      done,
	})
	if !d.busy {
		d.startNext()
	}
	return done
}

// track returns the track holding byte offset off.
func (d *HDD) track(off int64) int64 { return off / d.cfg.TrackBytes }

// seekTime returns the head movement time between two tracks.
func (d *HDD) seekTime(from, to int64) sim.Duration {
	if from == to {
		return 0
	}
	dist := from - to
	if dist < 0 {
		dist = -dist
	}
	frac := math.Sqrt(float64(dist) / float64(d.totalTracks))
	return d.cfg.SeekSettle + sim.Duration(float64(d.cfg.SeekFullStroke)*frac)
}

// transferTime returns the media-rate transfer time for n bytes.
func (d *HDD) transferTime(n int) sim.Duration {
	return sim.Duration(float64(n) / d.cfg.MediaMBps * 1e3)
}

// access returns the mechanical time (seek plus rotational wait) to reach
// r from the head's track when the clock stands at phase into a revolution.
// Sequential hits on the track cache position for free. The angular
// position is read off the virtual clock, which makes the model
// deterministic without being degenerate; the drive ranks its queue by
// exactly the time it then charges.
func (d *HDD) access(r *hddRequest, phase sim.Duration) sim.Duration {
	if d.isSequential(r) {
		return 0
	}
	seek := d.seekTime(d.headTrack, r.track)
	under := phase + seek // where the head is in its revolution when the seek ends
	for under >= d.revTime {
		under -= d.revTime
	}
	wait := r.angle - under
	if wait < 0 {
		wait += d.revTime
	}
	return seek + wait
}

// reach returns a track distance whose seek alone takes longer than c: no
// queued request that far from the head can be reached sooner, so the
// dispatch loop skips it without working out its rotation. It inverts the
// square-root seek curve and adds a track. The curve rises by at least
// SeekFullStroke/(2·tracks) per track (122 ns on the default drive, 61 ns
// on RAID8's spindles; TestSeekTimeStrictlyIncreasing), which puts that
// track past any rounding.
func (d *HDD) reach(c sim.Duration) int64 {
	if c <= d.cfg.SeekSettle {
		return int64(min(c, 1)) // 0 when c is 0: nothing beats a free read
	}
	x := float64(c-d.cfg.SeekSettle) / float64(d.cfg.SeekFullStroke)
	return int64(math.Ceil(x*x*float64(d.totalTracks))) + 1
}

func (d *HDD) isSequential(r *hddRequest) bool {
	return d.lastEnd >= 0 && r.offset == d.lastEnd &&
		r.offset-d.lastEnd < int64(d.cfg.ReadaheadWindow)
}

// startNext dispatches the queued request with the shortest access time
// among the first QueueDepthMax entries, as NCQ firmware orders reads by
// seek and rotational position: a deeper queue offers a nearer request, so
// throughput grows with queue depth while each request's wait in the queue
// grows too. One rule keeps a scan's stream in order: a queued block read
// that ends where the chosen request starts goes first (blockBefore), unless
// the chosen one streams from the track cache.
func (d *HDD) startNext() {
	if len(d.queue) == 0 {
		d.busy = false
		return
	}
	d.busy = true
	window := len(d.queue)
	if window > d.cfg.QueueDepthMax {
		window = d.cfg.QueueDepthMax
	}
	phase := sim.Duration(int64(d.env.Now()) % int64(d.revTime))
	best, bestCost := 0, d.access(&d.queue[0], phase)
	limit := d.reach(bestCost)
	for i := 1; i < window; i++ {
		r := &d.queue[i]
		if dist := r.track - d.headTrack; dist >= limit || -dist >= limit {
			continue
		}
		if c := d.access(r, phase); c < bestCost {
			best, bestCost = i, c
			limit = d.reach(c)
		}
	}
	if bestCost > 0 && d.blocks > 0 {
		if i := d.blockBefore(window, best); i >= 0 {
			for ; i >= 0; i = d.blockBefore(window, i) {
				best = i
			}
			bestCost = d.access(&d.queue[best], phase)
		}
	}
	d.current = d.queue[best]
	d.queue = slices.Delete(d.queue, best, best+1)
	if d.current.length > pageBytes {
		d.blocks--
	}
	d.env.Schedule(bestCost+d.transferTime(d.current.length), d.serviceDone)
}

// pageBytes is the engine's page (disk.PageSize); a longer request is a
// block read.
const pageBytes = 4 << 10

// blockBefore returns the index, among the first window queued, of a block
// read that ends exactly where the chosen request starts, or -1. Served
// first, it leaves the head at the chosen request's first byte, which then
// streams from the track cache: two adjacent blocks of one scan queued
// together would otherwise go nearer-first, the first costing most of a
// revolution after the second, and the scan would keep reading its blocks in
// swapped pairs. startNext follows a run of such blocks back to its first.
func (d *HDD) blockBefore(window, chosen int) int {
	start := d.queue[chosen].offset
	for i := 0; i < window; i++ {
		if r := &d.queue[i]; r.length > pageBytes && r.offset+int64(r.length) == start {
			return i
		}
	}
	return -1
}

// finish completes the request under the head and dispatches the next.
func (d *HDD) finish() {
	r := d.current
	d.headTrack = d.track(r.offset + int64(r.length))
	d.lastEnd = r.offset + int64(r.length)
	d.metrics.Completed(r.length, sim.Duration(d.env.Now()-r.submitted))
	r.done.Fire()
	d.startNext()
}
