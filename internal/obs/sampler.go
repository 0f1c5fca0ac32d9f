package obs

import (
	"fmt"

	"pioqo/internal/sim"
)

// Sample is one periodic reading of an instantaneous value.
type Sample struct {
	At    sim.Time
	Value float64
}

// Sampler reads a value on a fixed virtual-time period into a time series —
// the primitive behind queue-depth profiling (§2 of the paper). Start it
// before the work of interest and Stop it from the driving process when the
// work completes: an unstopped sampler keeps scheduling ticks and keeps the
// simulation alive.
type Sampler struct {
	env      *sim.Env
	interval sim.Duration
	read     func() float64
	samples  []Sample
	stopped  bool
}

// NewSampler returns a sampler calling read every interval.
func NewSampler(env *sim.Env, interval sim.Duration, read func() float64) *Sampler {
	if interval <= 0 {
		panic(fmt.Sprintf("obs: non-positive sampling interval %v", interval))
	}
	if read == nil {
		panic("obs: sampler without a read function")
	}
	return &Sampler{env: env, interval: interval, read: read}
}

// Start begins sampling at the current virtual time. Restarting an active
// or stopped sampler appends to the existing series.
func (s *Sampler) Start() {
	s.stopped = false
	s.tick()
}

func (s *Sampler) tick() {
	if s.stopped {
		return
	}
	s.samples = append(s.samples, Sample{At: s.env.Now(), Value: s.read()})
	s.env.Schedule(s.interval, s.tick)
}

// Stop ends sampling; the scheduled next tick becomes a no-op.
func (s *Sampler) Stop() { s.stopped = true }

// Series returns the collected samples.
func (s *Sampler) Series() []Sample { return s.samples }
