package device

import (
	"fmt"

	"pioqo/internal/sim"
)

// RAID0 stripes reads over k child devices. It models the paper's
// 8-spindle 15,000 RPM array: queue depth spreads requests across spindles,
// so random-read throughput scales with queue depth up to the spindle count
// while per-request latency grows once individual spindles start queueing —
// the regime where the paper's AW calibration method measures lower costs
// than GW (Fig. 11) and where exponential queue-depth calibration with
// linear interpolation must remain accurate (Fig. 12).
type RAID0 struct {
	env      *sim.Env
	children []Device
	stripe   int64
	metrics  *Metrics
	size     int64

	requests freeList[raidRequest]
}

// raidRequest is one striped request waiting for its child segments.
type raidRequest struct {
	r         *RAID0
	length    int
	submitted sim.Time
	done      *sim.Completion
	pending   int // child segments still in flight

	segmentDone func() // = onSegmentDone
}

// HDD15KConfig models one 15,000 RPM enterprise spindle of the paper's RAID
// array: faster rotation and seeks than the commodity 7200 RPM drive.
func HDD15KConfig() HDDConfig {
	cfg := DefaultHDDConfig()
	cfg.RPM = 15000
	cfg.SeekSettle = 300 * sim.Microsecond
	cfg.SeekFullStroke = 8 * sim.Millisecond
	cfg.MediaMBps = 180
	return cfg
}

// NewRAID0 returns a stripe set over k spindles built from cfg, with the
// given stripe unit in bytes.
func NewRAID0(e *sim.Env, k int, stripeBytes int64, cfg HDDConfig) *RAID0 {
	if k <= 0 || stripeBytes <= 0 {
		panic("device: invalid RAID0 geometry")
	}
	r := &RAID0{
		env:     e,
		stripe:  stripeBytes,
		metrics: NewMetrics(e),
		size:    cfg.Capacity * int64(k),
	}
	for i := 0; i < k; i++ {
		r.children = append(r.children, NewHDD(e, cfg))
	}
	return r
}

// Name implements Device.
func (r *RAID0) Name() string { return fmt.Sprintf("raid0x%d", len(r.children)) }

// Size implements Device.
func (r *RAID0) Size() int64 { return r.size }

// Metrics implements Device.
func (r *RAID0) Metrics() *Metrics { return r.metrics }

// WriteAt implements Device, striping like ReadAt (RAID0 has no parity).
func (r *RAID0) WriteAt(offset int64, length int) *sim.Completion {
	return r.readOrWrite(offset, length, true)
}

// ReadAt implements Device, splitting the request at stripe boundaries and
// completing when every child segment has completed.
func (r *RAID0) ReadAt(offset int64, length int) *sim.Completion {
	return r.readOrWrite(offset, length, false)
}

func (r *RAID0) readOrWrite(offset int64, length int, write bool) *sim.Completion {
	validate(r, offset, length)
	q := r.requests.get()
	if q == nil {
		q = &raidRequest{r: r}
		q.segmentDone = q.onSegmentDone
	}
	done := sim.NewCompletion(r.env)
	q.length, q.submitted, q.done = length, r.env.Now(), done
	q.pending = int((offset+int64(length)-1)/r.stripe-offset/r.stripe) + 1
	r.metrics.Submitted()

	for remaining := int64(length); remaining > 0; {
		stripeIdx := offset / r.stripe
		within := offset % r.stripe
		segLen := r.stripe - within
		if segLen > remaining {
			segLen = remaining
		}
		child := r.children[stripeIdx%int64(len(r.children))]
		childOffset := stripeIdx/int64(len(r.children))*r.stripe + within
		var c *sim.Completion
		if write {
			c = child.WriteAt(childOffset, int(segLen))
		} else {
			c = child.ReadAt(childOffset, int(segLen))
		}
		c.OnFire(q.segmentDone)
		offset += segLen
		remaining -= segLen
	}
	return done
}

// onSegmentDone completes the request with its last segment; the record is
// free again before the completion fires.
func (q *raidRequest) onSegmentDone() {
	q.pending--
	if q.pending > 0 {
		return
	}
	r, length, submitted, done := q.r, q.length, q.submitted, q.done
	q.done = nil
	r.requests.put(q)
	r.metrics.Completed(length, sim.Duration(r.env.Now()-submitted))
	done.Fire()
}
