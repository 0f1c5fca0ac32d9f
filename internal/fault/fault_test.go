package fault

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"pioqo/internal/device"
	"pioqo/internal/obs"
	"pioqo/internal/sim"
)

// fakeDevice is a fixed-latency device for injector tests: every read
// completes after latency, and the device counts the reads that actually
// reached it.
type fakeDevice struct {
	env     *sim.Env
	latency sim.Duration
	reads   int
	metrics *device.Metrics
}

func newFakeDevice(env *sim.Env, latency sim.Duration) *fakeDevice {
	return &fakeDevice{env: env, latency: latency, metrics: device.NewMetrics(env)}
}

func (d *fakeDevice) ReadAt(offset int64, length int) *sim.Completion {
	d.reads++
	c := sim.NewCompletion(d.env)
	d.env.Schedule(d.latency, c.Fire)
	return c
}

func (d *fakeDevice) WriteAt(offset int64, length int) *sim.Completion {
	c := sim.NewCompletion(d.env)
	d.env.Schedule(d.latency, c.Fire)
	return c
}

func (d *fakeDevice) Size() int64              { return 1 << 30 }
func (d *fakeDevice) Name() string             { return "fake" }
func (d *fakeDevice) Metrics() *device.Metrics { return d.metrics }

// counted reads counter m off rec: the injector and the hedger count what
// they do only through the events they record there.
func counted(rec *obs.Registry, m obs.Metric) int64 { return rec.Counter(m).Value() }

func TestRetryPolicyDefaults(t *testing.T) {
	p := RetryPolicy{}.Normalized()
	if p != DefaultRetry {
		t.Fatalf("zero policy normalized to %+v, want %+v", p, DefaultRetry)
	}
	// Non-zero fields survive normalization.
	q := RetryPolicy{MaxAttempts: 2, Backoff: sim.Millisecond, MaxBackoff: 2 * sim.Millisecond}
	if got := q.Normalized(); got != q {
		t.Fatalf("normalized %+v, want unchanged", got)
	}
}

func TestRetryPolicyBackoffDoublesAndCaps(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 8, Backoff: 100 * sim.Microsecond, MaxBackoff: 500 * sim.Microsecond}
	want := []sim.Duration{
		100 * sim.Microsecond,
		200 * sim.Microsecond,
		400 * sim.Microsecond,
		500 * sim.Microsecond, // capped
		500 * sim.Microsecond,
	}
	for i, w := range want {
		if got := p.BackoffFor(i); got != w {
			t.Errorf("BackoffFor(%d) = %v, want %v", i, got, w)
		}
	}
}

func TestMapContextErr(t *testing.T) {
	if got := MapContextErr(nil); got != nil {
		t.Fatalf("nil → %v", got)
	}
	if got := MapContextErr(context.Canceled); !errors.Is(got, ErrCanceled) {
		t.Fatalf("context.Canceled → %v", got)
	}
	if got := MapContextErr(context.DeadlineExceeded); !errors.Is(got, ErrDeadlineExceeded) {
		t.Fatalf("context.DeadlineExceeded → %v", got)
	}
	other := errors.New("boom")
	if got := MapContextErr(other); got != other {
		t.Fatalf("unrelated error mapped to %v", got)
	}
}

func TestSentinelsSatisfyContextTaxonomy(t *testing.T) {
	if !errors.Is(ErrCanceled, context.Canceled) {
		t.Error("ErrCanceled does not wrap context.Canceled")
	}
	if !errors.Is(ErrDeadlineExceeded, context.DeadlineExceeded) {
		t.Error("ErrDeadlineExceeded does not wrap context.DeadlineExceeded")
	}
}

func TestControlInertAndNil(t *testing.T) {
	env := sim.NewEnv(1)
	var nilCtl *Control
	if nilCtl.Aborted() || nilCtl.Err() != nil {
		t.Fatal("nil control must never abort")
	}
	nilCtl.Cancel(errors.New("ignored")) // must not panic

	ctl := NewControl(env)
	if ctl.Aborted() || ctl.Err() != nil {
		t.Fatal("fresh control must be inert")
	}
}

func TestControlCancelFirstCauseWins(t *testing.T) {
	ctl := NewControl(sim.NewEnv(1))
	first := fmt.Errorf("%w: first", ErrDeviceFault)
	ctl.Cancel(first)
	ctl.Cancel(errors.New("second"))
	if got := ctl.Err(); got != first {
		t.Fatalf("Err() = %v, want the first cause", got)
	}
	// Cancel(nil) defaults to ErrCanceled.
	ctl2 := NewControl(sim.NewEnv(1))
	ctl2.Cancel(nil)
	if !errors.Is(ctl2.Err(), ErrCanceled) {
		t.Fatalf("Cancel(nil) → %v, want ErrCanceled", ctl2.Err())
	}
}

func TestControlVirtualDeadline(t *testing.T) {
	env := sim.NewEnv(1)
	ctl := NewControl(env)
	ctl.SetDeadline(env.Now().Add(sim.Millisecond))
	if ctl.Aborted() {
		t.Fatal("aborted before the deadline")
	}
	env.Go("tick", func(p *sim.Proc) { p.Sleep(2 * sim.Millisecond) })
	env.Run()
	if !ctl.Aborted() {
		t.Fatal("not aborted after the deadline passed")
	}
	if !errors.Is(ctl.Err(), ErrDeadlineExceeded) {
		t.Fatalf("Err() = %v, want ErrDeadlineExceeded", ctl.Err())
	}
}

func TestControlPollMapsContextErrors(t *testing.T) {
	env := sim.NewEnv(1)
	ctl := NewControl(env)
	var pollErr error
	ctl.SetPoll(func() error { return pollErr })
	if ctl.Aborted() {
		t.Fatal("aborted with a nil poll result")
	}
	pollErr = context.Canceled
	if !ctl.Aborted() || !errors.Is(ctl.Err(), ErrCanceled) {
		t.Fatalf("canceled poll → aborted=%v err=%v", ctl.Aborted(), ctl.Err())
	}

	ctl2 := NewControl(env)
	ctl2.SetPoll(func() error { return context.DeadlineExceeded })
	if !ctl2.Aborted() || !errors.Is(ctl2.Err(), ErrDeadlineExceeded) {
		t.Fatalf("deadline poll → aborted=%v err=%v", ctl2.Aborted(), ctl2.Err())
	}
}

// run drives n reads through the injector, returning each read's completion
// virtual time and error (both zero-valued when the read is still pending,
// which the tests treat as a failure).
func runReads(t *testing.T, env *sim.Env, j *Injector, n int) ([]sim.Time, []error) {
	t.Helper()
	times := make([]sim.Time, n)
	errs := make([]error, n)
	env.Go("reader", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			c := j.ReadAt(int64(i)*4096, 4096)
			p.Wait(c)
			times[i] = c.FiredAt()
			errs[i] = c.Err()
		}
	})
	env.Run()
	return times, errs
}

func TestInjectorPassthroughUnarmed(t *testing.T) {
	// Unarmed, the injector must return the inner completion itself — not a
	// wrapper — so the simulation's event pattern is untouched.
	env := sim.NewEnv(1)
	dev := newFakeDevice(env, 100*sim.Microsecond)
	j := Wrap(env, nil, dev)
	inner := dev.ReadAt(0, 4096)
	_ = inner
	c := j.ReadAt(4096, 4096)
	c2 := dev.ReadAt(4096, 4096)
	_ = c2
	if dev.reads != 3 {
		t.Fatalf("inner device saw %d reads, want 3", dev.reads)
	}
	if j.Armed() {
		t.Fatal("unarmed injector reports Armed")
	}
	env.Run()
	if c.Err() != nil {
		t.Fatalf("passthrough read failed: %v", c.Err())
	}
}

func TestInjectorErrorDraw(t *testing.T) {
	env := sim.NewEnv(1)
	dev := newFakeDevice(env, 100*sim.Microsecond)
	rec := obs.NewRegistry(env)
	j := Wrap(env, rec, dev)
	j.Arm(Schedule{Windows: []Window{{ErrorRate: 1}}})
	_, errs := runReads(t, env, j, 3)
	for i, err := range errs {
		if !errors.Is(err, ErrDeviceFault) {
			t.Fatalf("read %d: err = %v, want ErrDeviceFault", i, err)
		}
	}
	if dev.reads != 0 {
		t.Fatalf("failing reads reached the device %d times", dev.reads)
	}
	if n := counted(rec, obs.MetricFaultErrors); n != 3 {
		t.Fatalf("fault.errors = %d, want 3", n)
	}
}

func TestInjectorExtraLatency(t *testing.T) {
	env := sim.NewEnv(1)
	dev := newFakeDevice(env, 100*sim.Microsecond)
	j := Wrap(env, nil, dev)
	j.Arm(Schedule{Windows: []Window{{ExtraLatency: 400 * sim.Microsecond}}})
	times, errs := runReads(t, env, j, 1)
	if errs[0] != nil {
		t.Fatalf("delayed read failed: %v", errs[0])
	}
	if want := sim.Time(500 * sim.Microsecond); times[0] != want {
		t.Fatalf("read completed at %v, want %v (400µs delay + 100µs device)", times[0], want)
	}
}

func TestInjectorStragglerDraw(t *testing.T) {
	env := sim.NewEnv(1)
	dev := newFakeDevice(env, 100*sim.Microsecond)
	rec := obs.NewRegistry(env)
	j := Wrap(env, rec, dev)
	j.Arm(Schedule{Windows: []Window{{StragglerRate: 1, StragglerLatency: sim.Millisecond}}})
	times, errs := runReads(t, env, j, 1)
	if errs[0] != nil {
		t.Fatalf("straggler read failed: %v", errs[0])
	}
	if want := sim.Time(1100 * sim.Microsecond); times[0] != want {
		t.Fatalf("straggler completed at %v, want %v", times[0], want)
	}
	if n := counted(rec, obs.MetricFaultStragglers); n != 1 {
		t.Fatalf("fault.stragglers = %d, want 1", n)
	}
}

func TestInjectorThrottleAboveDegradedLimit(t *testing.T) {
	env := sim.NewEnv(1)
	dev := newFakeDevice(env, sim.Millisecond)
	rec := obs.NewRegistry(env)
	j := Wrap(env, rec, dev)
	// 4 slots, 50% loss → limit 2. Issue 4 concurrent reads: the third and
	// fourth are above the limit and pay escalating penalties.
	j.Arm(Schedule{Slots: 4, Windows: []Window{{ChannelLoss: 0.5, OverloadPenalty: 100 * sim.Microsecond}}})
	done := 0
	for i := 0; i < 4; i++ {
		c := j.ReadAt(int64(i)*4096, 4096)
		c.OnFire(func() { done++ })
	}
	env.Run()
	if done != 4 {
		t.Fatalf("%d reads completed, want 4", done)
	}
	if n := counted(rec, obs.MetricFaultThrottled); n != 2 {
		t.Fatalf("fault.throttled = %d, want 2", n)
	}
}

func TestInjectorWindowSchedule(t *testing.T) {
	env := sim.NewEnv(1)
	dev := newFakeDevice(env, 100*sim.Microsecond)
	j := Wrap(env, nil, dev)
	// Errors only inside [1ms, 2ms) from arm time.
	j.Arm(Schedule{Windows: []Window{{From: sim.Millisecond, To: 2 * sim.Millisecond, ErrorRate: 1}}})

	var before, inside, after error
	env.Go("reader", func(p *sim.Proc) {
		c := j.ReadAt(0, 4096)
		p.Wait(c)
		before = c.Err()
		p.Sleep(sim.Millisecond) // into the window (~1.1ms)
		c = j.ReadAt(4096, 4096)
		p.Wait(c)
		inside = c.Err()
		p.Sleep(sim.Millisecond) // past the window (~2.3ms)
		c = j.ReadAt(8192, 4096)
		p.Wait(c)
		after = c.Err()
	})
	env.Run()
	if before != nil || after != nil {
		t.Fatalf("reads outside the window failed: before=%v after=%v", before, after)
	}
	if !errors.Is(inside, ErrDeviceFault) {
		t.Fatalf("read inside the window: err = %v, want ErrDeviceFault", inside)
	}
}

func TestInjectorDegradationProbe(t *testing.T) {
	env := sim.NewEnv(1)
	j := Wrap(env, nil, newFakeDevice(env, 100*sim.Microsecond))
	if got := j.Degradation(); got != 0 {
		t.Fatalf("unarmed Degradation() = %v, want 0", got)
	}
	j.Arm(Schedule{Windows: []Window{{ChannelLoss: 0.5}}})
	if got := j.Degradation(); got != 0.5 {
		t.Fatalf("Degradation() = %v, want 0.5", got)
	}
	j.Arm(Schedule{Windows: []Window{{ChannelLoss: 3}}})
	if got := j.Degradation(); got != 1 {
		t.Fatalf("over-unity loss: Degradation() = %v, want clamped 1", got)
	}
	j.Disarm()
	if got := j.Degradation(); got != 0 {
		t.Fatalf("disarmed Degradation() = %v, want 0", got)
	}
}

func TestInjectorDeterministicReplay(t *testing.T) {
	sched := Schedule{
		Seed:  7,
		Slots: 8,
		Windows: []Window{{
			ErrorRate:        0.2,
			StragglerRate:    0.3,
			StragglerLatency: 2 * sim.Millisecond,
			ChannelLoss:      0.5,
		}},
	}
	run := func() ([]sim.Time, []string) {
		env := sim.NewEnv(1)
		j := Wrap(env, nil, newFakeDevice(env, 150*sim.Microsecond))
		j.Arm(sched)
		times, errs := runReads(t, env, j, 64)
		strs := make([]string, len(errs))
		for i, err := range errs {
			if err != nil {
				strs[i] = err.Error()
			}
		}
		return times, strs
	}
	t1, e1 := run()
	t2, e2 := run()
	for i := range t1 {
		if t1[i] != t2[i] || e1[i] != e2[i] {
			t.Fatalf("read %d diverged across replays: (%v,%q) vs (%v,%q)",
				i, t1[i], e1[i], t2[i], e2[i])
		}
	}
}
