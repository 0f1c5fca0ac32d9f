package fault

import (
	"fmt"
	"math/rand"

	"pioqo/internal/device"
	"pioqo/internal/obs"
	"pioqo/internal/sim"
)

// Window is one interval of a fault schedule. From and To are offsets from
// the moment the schedule is armed (Injector.Arm), so the same schedule
// replays identically no matter where in a run it is installed; To == 0
// means the window never closes.
//
// Within an active window each read independently draws, in order:
//
//  1. an injected error (probability ErrorRate): the read never reaches the
//     underlying device — its completion fails with ErrDeviceFault after
//     ErrorLatency;
//  2. a latency delay: ExtraLatency applies to every read, a straggler draw
//     (probability StragglerRate) adds StragglerLatency, and degraded
//     channels add throttling — with ChannelLoss > 0 the device's effective
//     parallel slots shrink to Slots×(1−ChannelLoss), and each read issued
//     with outstanding ≥ that limit pays (excess+1)×OverloadPenalty, so
//     running above the degraded depth actively costs rather than merely
//     not helping.
type Window struct {
	From sim.Duration // window opens at arm-time + From
	To   sim.Duration // window closes at arm-time + To; 0 = never

	ErrorRate    float64      // per-read probability of an injected I/O error
	ErrorLatency sim.Duration // how long a failing read takes; 0 → 200µs

	ExtraLatency sim.Duration // flat added latency per read

	StragglerRate    float64      // per-read probability of a straggler
	StragglerLatency sim.Duration // added latency for a straggler; 0 → 5ms

	ChannelLoss     float64      // fraction of parallel slots lost, 0..1
	OverloadPenalty sim.Duration // per-excess-request throttle cost; 0 → 100µs
}

// Schedule is a seeded, virtual-time-driven fault plan for one device.
// Identical (seed, windows) pairs replay byte-identically.
type Schedule struct {
	Seed    int64 // RNG seed for error/straggler draws; 0 → 1
	Slots   int   // healthy parallel slot count ChannelLoss scales; 0 → 48
	Windows []Window
}

// Injector wraps a device.Device and applies an armed fault Schedule to its
// reads. Unarmed (or outside every window) it is pure passthrough: ReadAt
// returns the inner device's completion directly, scheduling no events and
// drawing no randomness, so a run with no schedule is byte-identical to one
// without the injector at all.
//
// The injector is also the degradation signal's source: Degradation reports
// the active window's ChannelLoss, which the broker polls to shrink its
// credit supply, so queries submitted meanwhile are planned at a reduced
// depth.
type Injector struct {
	env   *sim.Env
	inner device.Device

	armed bool
	sched Schedule
	base  sim.Time // virtual time the schedule was armed
	rng   *rand.Rand

	outstanding int // injector-tracked in-flight reads, for throttling

	// obs records one event per injected fault (error, straggler draw,
	// throttle), which also counts it (fault.errors, fault.stragglers,
	// fault.throttled); nil records nothing. Fault events are device-level
	// and carry obs.NoQuery — per-query attribution happens at the
	// executor's retry sites, which see the fault as a failed read.
	obs *obs.Registry
}

// Wrap returns an unarmed (passthrough) injector over inner, recording into
// rec. Recording draws no randomness and schedules no events, so runs with
// and without an event ring are byte-identical.
func Wrap(env *sim.Env, rec *obs.Registry, inner device.Device) *Injector {
	return &Injector{env: env, obs: rec, inner: inner}
}

// Arm installs sched, effective immediately: window offsets are interpreted
// relative to the current virtual time. Arming replaces any previous
// schedule and resets the draw RNG, so the same schedule armed at the same
// virtual time replays byte-identically. The registry's fault counters are
// not reset: they count every arm.
func (j *Injector) Arm(sched Schedule) {
	if sched.Seed == 0 {
		sched.Seed = 1
	}
	if sched.Slots <= 0 {
		sched.Slots = 48
	}
	j.sched = sched
	j.base = j.env.Now()
	j.rng = rand.New(rand.NewSource(sched.Seed))
	j.armed = true
}

// Disarm returns the injector to passthrough.
func (j *Injector) Disarm() { j.armed = false }

// Armed reports whether a schedule is installed.
func (j *Injector) Armed() bool { return j.armed }

// window returns the schedule window active at the current virtual time, or
// nil.
func (j *Injector) window() *Window {
	if !j.armed {
		return nil
	}
	since := sim.Duration(j.env.Now() - j.base)
	for i := range j.sched.Windows {
		w := &j.sched.Windows[i]
		if since >= w.From && (w.To == 0 || since < w.To) {
			return w
		}
	}
	return nil
}

// Degradation reports the channel-loss fraction of the currently active
// window, or 0 when healthy. The broker polls this to size its degraded
// credit supply.
func (j *Injector) Degradation() float64 {
	if w := j.window(); w != nil && w.ChannelLoss > 0 {
		loss := w.ChannelLoss
		if loss > 1 {
			loss = 1
		}
		return loss
	}
	return 0
}

// ReadAt applies the active window to the read: it may fail it outright,
// delay it, or pass it through untouched. Outside any window the inner
// completion is returned directly.
func (j *Injector) ReadAt(offset int64, length int) *sim.Completion {
	w := j.window()
	if w == nil {
		return j.inner.ReadAt(offset, length)
	}

	// Injected error: the read never reaches the device.
	if w.ErrorRate > 0 && j.rng.Float64() < w.ErrorRate {
		j.obs.Emit(obs.EvFaultError, obs.NoQuery, offset, 0)
		lat := w.ErrorLatency
		if lat <= 0 {
			lat = 200 * sim.Microsecond
		}
		c := sim.NewCompletion(j.env)
		j.env.Schedule(lat, func() {
			c.Fail(fmt.Errorf("%w: injected read error at offset %d", ErrDeviceFault, offset))
		})
		return c
	}

	delay := w.ExtraLatency
	if w.StragglerRate > 0 && j.rng.Float64() < w.StragglerRate {
		lat := w.StragglerLatency
		if lat <= 0 {
			lat = 5 * sim.Millisecond
		}
		j.obs.Emit(obs.EvFaultStraggler, obs.NoQuery, offset, int64(lat))
		delay += lat
	}
	if w.ChannelLoss > 0 {
		loss := w.ChannelLoss
		if loss > 1 {
			loss = 1
		}
		limit := int(float64(j.sched.Slots)*(1-loss) + 0.5)
		if limit < 1 {
			limit = 1
		}
		if j.outstanding >= limit {
			pen := w.OverloadPenalty
			if pen <= 0 {
				pen = 100 * sim.Microsecond
			}
			penalty := sim.Duration(j.outstanding-limit+1) * pen
			j.obs.Emit(obs.EvFaultThrottle, obs.NoQuery, int64(j.outstanding), int64(penalty))
			delay += penalty
		}
	}

	j.outstanding++
	c := sim.NewCompletion(j.env)
	done := func() {
		inner := j.inner.ReadAt(offset, length)
		inner.OnFire(func() {
			j.outstanding--
			c.Fire()
		})
	}
	if delay > 0 {
		j.env.Schedule(delay, done)
	} else {
		done()
	}
	return c
}

// WriteAt passes through to the inner device; the fault model covers the
// read path, which is what the paper's workloads exercise.
func (j *Injector) WriteAt(offset int64, length int) *sim.Completion {
	return j.inner.WriteAt(offset, length)
}

// Size returns the inner device's capacity.
func (j *Injector) Size() int64 { return j.inner.Size() }

// Name returns the inner device's model name.
func (j *Injector) Name() string { return j.inner.Name() }

// Metrics returns the inner device's instrumentation.
func (j *Injector) Metrics() *device.Metrics { return j.inner.Metrics() }
