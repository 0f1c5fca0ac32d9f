package pioqo

import (
	"time"

	"pioqo/internal/fault"
	"pioqo/internal/obs"
	"pioqo/internal/sim"
)

// FaultWindow is one interval of a fault schedule, with offsets relative
// to the moment the schedule is installed (InjectFaults). To == 0 means
// the window never closes. Within an active window each device read
// independently draws an injected error (probability ErrorRate, failing
// after ErrorLatency without touching the device), added latency
// (ExtraLatency always; StragglerLatency with probability StragglerRate),
// and degraded-channel throttling: ChannelLoss shrinks the device's
// effective parallel slots, and each read issued above the shrunken limit
// pays (excess+1)×OverloadPenalty — running deep on a degraded device
// actively costs, which is what makes reduced-depth planning win.
type FaultWindow struct {
	From time.Duration
	To   time.Duration

	ErrorRate    float64
	ErrorLatency time.Duration // 0 → 200µs

	ExtraLatency time.Duration

	StragglerRate    float64
	StragglerLatency time.Duration // 0 → 5ms

	ChannelLoss     float64       // fraction of parallel slots lost, 0..1
	OverloadPenalty time.Duration // 0 → 100µs
}

func (w FaultWindow) internal() fault.Window {
	return fault.Window{
		From:             sim.Duration(w.From),
		To:               sim.Duration(w.To),
		ErrorRate:        w.ErrorRate,
		ErrorLatency:     sim.Duration(w.ErrorLatency),
		ExtraLatency:     sim.Duration(w.ExtraLatency),
		StragglerRate:    w.StragglerRate,
		StragglerLatency: sim.Duration(w.StragglerLatency),
		ChannelLoss:      w.ChannelLoss,
		OverloadPenalty:  sim.Duration(w.OverloadPenalty),
	}
}

// FaultSchedule is a seeded, virtual-time-driven fault plan for the
// system's device. Identical (seed, windows) pairs replay byte-identically;
// an empty schedule (no windows) injects nothing.
type FaultSchedule struct {
	// Seed drives the error/straggler draws. 0 means 1.
	Seed int64

	// Slots is the healthy parallel slot count ChannelLoss scales — the
	// device's internal parallelism. 0 means 48, matching the SSD model.
	Slots int

	Windows []FaultWindow
}

func (sch FaultSchedule) internal() fault.Schedule {
	out := fault.Schedule{Seed: sch.Seed, Slots: sch.Slots}
	for _, w := range sch.Windows {
		out.Windows = append(out.Windows, w.internal())
	}
	return out
}

// FaultStats counts what the fault injectors have done since New, summed
// across nodes: the registry's fault.errors, fault.stragglers and
// fault.throttled.
//
// Deprecated: read the counters by name from MetricsSince, which also
// covers any interval.
type FaultStats struct {
	Errors     int64 // reads failed with ErrDeviceFault
	Stragglers int64 // reads that drew straggler latency
	Throttled  int64 // reads that paid a degraded-channel overload penalty
}

// InjectFaults installs sch on the system's device, effective immediately:
// window offsets count from now, so a schedule installed after Calibrate
// degrades queries without having degraded the calibration. Installed
// before Calibrate — right after New, say — a schedule also faults the
// calibration pass. Installing a schedule replaces any previous one.
//
// While a window with ChannelLoss is active, the resource broker, which
// admits every query, observes the degradation and shrinks its credit
// supply proportionally, so queries issued meanwhile plan at a
// queue depth the degraded device can still turn into throughput —
// graceful degradation instead of queue-depth thrash.
//
// On a sharded system every node is its own fault-injection domain: the
// schedule is armed on each node with a per-node derived seed, so the
// windows align in virtual time but each device draws its errors and
// stragglers independently.
func (s *System) InjectFaults(sch FaultSchedule) {
	for i, n := range s.nodes {
		nsch := sch.internal()
		if i > 0 {
			seed := nsch.Seed
			if seed == 0 {
				seed = 1
			}
			nsch.Seed = seed + int64(i)
		}
		n.Inj.Arm(nsch)
	}
}

// ClearFaults removes the fault schedule from every node; the cluster is
// healthy again.
func (s *System) ClearFaults() {
	for _, n := range s.nodes {
		n.Inj.Disarm()
	}
}

// FaultStats reports the injectors' activity since New, summed across
// nodes and across every schedule armed.
//
// Deprecated: read fault.errors, fault.stragglers and fault.throttled from
// MetricsSince.
func (s *System) FaultStats() FaultStats {
	return FaultStats{
		Errors:     s.reg.Counter(obs.MetricFaultErrors).Value(),
		Stragglers: s.reg.Counter(obs.MetricFaultStragglers).Value(),
		Throttled:  s.reg.Counter(obs.MetricFaultThrottled).Value(),
	}
}
