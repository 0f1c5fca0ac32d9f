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

	// QueueDepthMax is how many queued requests the elevator examines when
	// picking the next request to service (models NCQ depth).
	QueueDepthMax int

	// ReadaheadWindow is the track-cache readahead window: a read that
	// starts exactly where the previous one ended, within this many bytes,
	// is served at media rate with no mechanical positioning.
	ReadaheadWindow int
}

// DefaultHDDConfig models the paper's commodity 7200 RPM drive:
// ~110 MB/s sequential, ~85 IOPS random 4 KB at queue depth 1, and a modest
// elevator gain at higher queue depths (the paper measures random reads at
// queue depth 32 reaching only ~1.3% of sequential throughput).
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
// shortest-positioning-time-first (SPTF) elevator over the device queue,
// and a track cache that streams sequential reads at media rate.
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
	lastEnd   int64 // end offset of the previous request, for readahead

	// current is the request under the head. Its service ends in the one
	// event callback the disk ever schedules, bound at construction, so a
	// request allocates its completion and nothing else.
	current     hddRequest
	serviceDone func() // = finish
}

type hddRequest struct {
	offset    int64
	length    int
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
// writing as reading: the request joins the same elevator queue.
func (d *HDD) WriteAt(offset int64, length int) *sim.Completion {
	return d.ReadAt(offset, length)
}

// ReadAt implements Device.
func (d *HDD) ReadAt(offset int64, length int) *sim.Completion {
	validate(d, offset, length)
	done := sim.NewCompletion(d.env)
	d.metrics.Submitted()
	d.queue = append(d.queue, hddRequest{offset: offset, length: length, submitted: d.env.Now(), done: done})
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

// rotWait returns how long the head waits, after arriving at the target
// track at time t, for the first byte of the request to rotate under it.
// The angular position is derived from the virtual clock, which makes the
// model deterministic without being degenerate.
func (d *HDD) rotWait(at sim.Time, offset int64) sim.Duration {
	angleNow := float64(int64(at)%int64(d.revTime)) / float64(d.revTime)
	target := float64(offset%d.cfg.TrackBytes) / float64(d.cfg.TrackBytes)
	delta := target - angleNow
	if delta < 0 {
		delta++
	}
	return sim.Duration(delta * float64(d.revTime))
}

// transferTime returns the media-rate transfer time for n bytes.
func (d *HDD) transferTime(n int) sim.Duration {
	return sim.Duration(float64(n) / d.cfg.MediaMBps * 1e3)
}

// schedulingCost ranks queued requests for the elevator by seek distance
// only (classic LOOK/SSTF), in tracks: 0 for sequential and same-track
// requests. seekTime is strictly increasing in distance at every geometry
// the engine builds (TestSeekTimeStrictlyIncreasing), so this picks what
// ranking by seek time would, without a square root per queued request.
// The firmware is given no rotational knowledge: deep queues shorten seeks
// but cannot defeat rotational latency, matching the paper's drive, whose
// queue-depth-32 random reads gain only ~2-2.5x — all of it attributable
// to seek optimization over wide bands.
func (d *HDD) schedulingCost(r *hddRequest) int64 {
	if d.isSequential(r) {
		return 0
	}
	dist := d.track(r.offset) - d.headTrack
	if dist < 0 {
		dist = -dist
	}
	return dist
}

// positioning returns the actual mechanical time (seek + rotation) to reach
// r starting now. Sequential hits on the track cache position for free.
func (d *HDD) positioning(r *hddRequest) sim.Duration {
	if d.isSequential(r) {
		return 0
	}
	seek := d.seekTime(d.headTrack, d.track(r.offset))
	return seek + d.rotWait(d.env.Now().Add(seek), r.offset)
}

func (d *HDD) isSequential(r *hddRequest) bool {
	return d.lastEnd >= 0 && r.offset == d.lastEnd &&
		r.offset-d.lastEnd < int64(d.cfg.ReadaheadWindow)
}

// startNext dispatches the queued request with the shortest seek (LOOK
// elevator) among the first QueueDepthMax entries. This is what makes HDD
// throughput improve modestly — and latency degrade — with queue depth.
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
	best, bestCost := 0, d.schedulingCost(&d.queue[0])
	for i := 1; i < window; i++ {
		if c := d.schedulingCost(&d.queue[i]); c < bestCost {
			best, bestCost = i, c
		}
	}
	d.current = d.queue[best]
	d.queue = slices.Delete(d.queue, best, best+1)

	r := &d.current
	d.env.Schedule(d.positioning(r)+d.transferTime(r.length), d.serviceDone)
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
