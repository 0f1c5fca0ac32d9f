// Package device implements mechanistic storage device models — HDD, SSD,
// and RAID0 — that run in virtual time on the sim kernel.
//
// These models stand in for the paper's physical hardware (a 7200 RPM hard
// drive, a consumer PCIe SSD, and an 8-spindle 15 kRPM RAID array). They are
// deliberately mechanistic rather than analytic: requests move through
// queues, seek arms, flash channels, and shared buses, so that the
// queue-depth and band-size behaviours the QDTT cost model captures are
// *discovered* by the calibration code, not baked into it.
//
// The behavioural targets, taken from the paper's measurements:
//
//   - HDD: sequential ≫ random; ordering the queue by access time makes
//     queue depth help throughput modestly on wide bands while increasing
//     per-request latency; larger band sizes mean longer seeks and higher
//     cost.
//   - SSD: random throughput scales near-linearly with queue depth up to the
//     internal parallelism limit with roughly flat latency; a mild band-size
//     penalty (FTL mapping-cache misses) that fades at high queue depth;
//     sequential reads bounded by host interface bandwidth.
//   - RAID0: queue depth spreads requests over spindles, so throughput
//     scales with queue depth up to the spindle count while per-request
//     latency grows once spindles queue.
package device

import (
	"fmt"

	"pioqo/internal/obs"
	"pioqo/internal/sim"
)

// Device is an asynchronous block device in virtual time. Submit queues a
// read and returns immediately; the returned completion fires when the data
// would be in host memory. Devices are not safe for host-level concurrent
// use; all calls must come from simulation context (process or event).
type Device interface {
	// ReadAt submits an asynchronous read of length bytes at offset.
	ReadAt(offset int64, length int) *sim.Completion

	// WriteAt submits an asynchronous write of length bytes at offset. The
	// completion fires when the device has accepted the data durably (for
	// the SSD, after the flash program; for spinning media, after the
	// sectors pass under the head).
	WriteAt(offset int64, length int) *sim.Completion

	// Size returns the device capacity in bytes.
	Size() int64

	// Name returns a short human-readable model name.
	Name() string

	// Metrics returns the device's instrumentation counters.
	Metrics() *Metrics
}

// validate panics on malformed request geometry; device models call it at
// the top of ReadAt.
func validate(dev Device, offset int64, length int) {
	if length <= 0 {
		panic(fmt.Sprintf("device %s: read of %d bytes", dev.Name(), length))
	}
	if offset < 0 || offset+int64(length) > dev.Size() {
		panic(fmt.Sprintf("device %s: read [%d, %d) outside capacity %d",
			dev.Name(), offset, offset+int64(length), dev.Size()))
	}
}

// freeList is a stack of request records whose requests have completed,
// kept for the device's next requests: a record carries its stage callbacks,
// bound once when it is first made, so reusing it is what keeps a request
// from allocating them again. Each device owns its lists — an Env is
// single-threaded, and two devices (or two tests) share nothing.
type freeList[T any] []*T

// get takes a record off the list, or returns nil for the caller to make one.
func (f *freeList[T]) get() *T {
	s := *f
	if len(s) == 0 {
		return nil
	}
	r := s[len(s)-1]
	*f = s[:len(s)-1]
	return r
}

func (f *freeList[T]) put(r *T) { *f = append(*f, r) }

// Metrics instruments a device: completed request counts, bytes moved, the
// time-integral of outstanding requests (average queue depth), and summed
// request latency. Snapshot/Reset let experiments meter an interval, which
// is how Table 3's throughput numbers and the queue-depth profiles of §2
// are produced.
//
// The queue-depth integral lives in an obs.Gauge so the same reading feeds
// both the interval Summary and any registry the device is Published into.
// The gauge and the published counters are cumulative across the device's
// lifetime; Reset only moves this struct's interval baseline.
type Metrics struct {
	env *sim.Env

	depth  *obs.Gauge // outstanding requests; its integral is ∫ depth dt
	qdBase float64    // depth.Integral() at the last Reset

	started sim.Time // interval start (set by Reset)

	Requests   int64        // completed requests
	Bytes      int64        // completed bytes
	LatencySum sim.Duration // sum of request latencies

	// Cumulative registry mirrors, nil until Publish.
	reqCtr, byteCtr, latCtr *obs.Counter
	latHist                 *obs.Histogram
}

// NewMetrics returns zeroed metrics bound to e.
func NewMetrics(e *sim.Env) *Metrics {
	return &Metrics{env: e, depth: obs.NewGauge(e)}
}

// latencyBucketsUs are histogram edges for published request latencies, in
// microseconds: 50 µs flash reads through multi-rotation HDD waits.
var latencyBucketsUs = []float64{50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000}

// Publish registers this device's instruments in reg under the catalog's
// device.* names: the live queue-depth gauge plus cumulative counters for
// requests, bytes, and latency, and a request-latency histogram. Counters
// never reset — callers attribute intervals by diffing registry snapshots.
func (m *Metrics) Publish(reg *obs.Registry) {
	reg.AdoptGauge(obs.MetricDeviceQueueDepth, m.depth)
	m.reqCtr = reg.Counter(obs.MetricDeviceRequests)
	m.byteCtr = reg.Counter(obs.MetricDeviceBytes)
	m.latCtr = reg.Counter(obs.MetricDeviceLatencyNs)
	m.latHist = reg.Histogram(obs.MetricDeviceLatencyUs, latencyBucketsUs)
}

// Submitted records a request entering the device.
func (m *Metrics) Submitted() {
	m.depth.Add(1)
}

// Completed records a request leaving the device after latency d moving n
// bytes.
func (m *Metrics) Completed(n int, d sim.Duration) {
	m.depth.Add(-1)
	if m.depth.Value() < 0 {
		panic("device: more completions than submissions")
	}
	m.Requests++
	m.Bytes += int64(n)
	m.LatencySum += d
	m.reqCtr.Inc()
	m.byteCtr.Add(int64(n))
	m.latCtr.Add(int64(d))
	m.latHist.Observe(d.Micros())
}

// Outstanding reports the number of in-flight requests right now.
func (m *Metrics) Outstanding() int { return int(m.depth.Value()) }

// DepthIntegral reports the cumulative time-integral of the queue depth
// (∫ depth dt, in gauge-value × nanoseconds) since the start of the
// simulation. Diffing it over a window yields the sustained depth the
// workload actually generated — the broker's device-feedback probe.
func (m *Metrics) DepthIntegral() float64 { return m.depth.Integral() }

// Reset zeroes the interval counters and restarts the metering interval at
// the current virtual time. In-flight requests remain accounted for
// queue-depth purposes, and published registry instruments keep
// accumulating.
func (m *Metrics) Reset() {
	m.qdBase = m.depth.Integral()
	m.started = m.env.Now()
	m.Requests = 0
	m.Bytes = 0
	m.LatencySum = 0
}

// Snapshot summarises the interval since the last Reset (or the start of
// the simulation).
func (m *Metrics) Snapshot() Summary {
	elapsed := m.env.Now() - m.started
	s := Summary{
		Requests: m.Requests,
		Bytes:    m.Bytes,
		Elapsed:  sim.Duration(elapsed),
	}
	if elapsed > 0 {
		s.AvgQueueDepth = (m.depth.Integral() - m.qdBase) / float64(elapsed)
		s.ThroughputMBps = float64(m.Bytes) / 1e6 / sim.Duration(elapsed).Seconds()
	}
	if m.Requests > 0 {
		s.AvgLatency = sim.Duration(int64(m.LatencySum) / m.Requests)
	}
	return s
}

// Summary is a point-in-time reading of device metrics over an interval.
type Summary struct {
	Requests       int64
	Bytes          int64
	Elapsed        sim.Duration
	AvgQueueDepth  float64
	AvgLatency     sim.Duration
	ThroughputMBps float64
}

func (s Summary) String() string {
	return fmt.Sprintf("%d reqs, %.1f MB, %.2f MB/s, avg QD %.1f, avg lat %v",
		s.Requests, float64(s.Bytes)/1e6, s.ThroughputMBps, s.AvgQueueDepth, s.AvgLatency)
}
