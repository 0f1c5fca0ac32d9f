package exec

import (
	"fmt"

	"pioqo/internal/btree"
	"pioqo/internal/buffer"
	"pioqo/internal/device"
	"pioqo/internal/sim"
	"pioqo/internal/table"
)

// fleet owns the whole lifetime of one scan's workers: spawning, the
// wait-group the driver parks on, governor and event-log reporting, the
// metered CPU budget and its track span, the startup charge, the abort
// poll and the tuner tick at every quantum, and the teardown order. The
// drivers supply only a step — claim one quantum of work and process it.
//
// Every fleet is elastic. A scan without a Tuner runs a fleet whose tick
// never retunes, so a static degree needs no code path of its own. All
// mutation happens from simulation context, which is host-serialized, so
// plain fields suffice.
type fleet struct {
	ctx  *Context
	spec *Spec
	aggs []agg // one accumulator per slot

	live    int  // workers running (including those about to leave)
	leaving int  // workers instructed to retire but not yet exited
	next    int  // next slot to spawn
	max     int  // hard growth cap (sizes per-slot state)
	done    bool // work exhausted: growth is pointless now

	name string // process and track-span prefix of the current run
	step func(w *worker) bool
	wg   *sim.WaitGroup
}

// worker is one slot's state, handed to the step at every quantum.
type worker struct {
	id  int
	p   *sim.Proc
	bud cpuBudget
	a   *agg

	entries []btree.Entry // scratch reused across leaf batches
	matches []table.Match // scratch reused across pages
}

// Scratch is a node's free list of worker records: a worker's CPU budget and
// the leaf-entry and page-match buffers it grows on its first batches, kept
// for the node's next workers instead of being regrown by every fleet of
// every query. One Scratch belongs to one node — every Context built for
// that node carries it — and so to one sim.Env, whose processes the host
// runs one at a time: nothing is locked, and systems swept on different
// host threads never share a record. A nil Scratch (a Context built without
// one) makes every worker afresh.
type Scratch struct {
	free []*worker
}

// get takes a worker record off the list, or makes one.
func (s *Scratch) get() *worker {
	if s == nil || len(s.free) == 0 {
		return &worker{}
	}
	w := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	return w
}

// put returns an exited worker's record, dropping what it referenced.
func (s *Scratch) put(w *worker) {
	if s == nil {
		return
	}
	w.p, w.a, w.bud = nil, nil, cpuBudget{}
	s.free = append(s.free, w)
}

// newFleet sizes a fleet for spec: its degree, or the tuner's growth cap.
func newFleet(ctx *Context, spec *Spec) *fleet {
	max := spec.Degree
	if spec.Tune != nil && spec.Tune.MaxDegree() > max {
		max = spec.Tune.MaxDegree()
	}
	return &fleet{ctx: ctx, spec: spec, max: max}
}

// run launches n workers named name+slot, each calling step until it
// reports no work left, and parks p until the fleet has drained.
//
// A lone planned worker that can never grow runs on p itself: no process,
// no wait group. p yields where the spawn would have queued the worker and
// again where the wait group would have woken it, so every event keeps the
// place it has in a spawned fleet's schedule.
func (fl *fleet) run(p *sim.Proc, name string, n int, step func(w *worker) bool) {
	fl.name, fl.step = name, step
	fl.aggs = make([]agg, fl.max)
	for i := range fl.aggs {
		fl.aggs[i].kind = fl.spec.Agg
	}
	if n == 1 && fl.max == 1 {
		p.Sleep(0)
		fl.next, fl.live = 1, 1
		fl.work(p, 0)
		p.Sleep(0)
		return
	}
	fl.wg = sim.NewWaitGroup(fl.ctx.Env)
	for i := 0; i < n; i++ {
		fl.spawn()
	}
	p.WaitFor(fl.wg)
}

func (fl *fleet) spawn() {
	id := fl.next
	fl.next++
	fl.live++
	fl.wg.Add(1)
	fl.ctx.Env.Go(fmt.Sprintf("%s%d", fl.name, id), func(wp *sim.Proc) {
		defer fl.wg.Done()
		fl.work(wp, id)
	})
}

// work is one worker's lifetime. Teardown runs in the reverse of setup:
// settle the CPU debt, close the span, report the exit, leave the fleet.
func (fl *fleet) work(wp *sim.Proc, id int) {
	ctx, spec := fl.ctx, fl.spec
	retired := false
	defer func() {
		fl.live--
		if retired {
			fl.leaving--
		}
	}()
	spec.startWorker(ctx, id)
	defer spec.endWorker(ctx, id)
	w := ctx.Scratch.get()
	w.id, w.p, w.a = id, wp, &fl.aggs[id]
	var name string
	if ctx.Tracer != nil { // the track span's name; formatting allocates
		name = fmt.Sprintf("%s%d", fl.name, id)
	}
	w.bud = newBudget(ctx, spec.Span, name)
	defer func() {
		w.bud.finish(w.a.rows)
		ctx.Scratch.put(w)
	}()
	defer w.bud.settle(wp)
	// A lone planned worker is the query's own thread; every other one —
	// including any an elastic fleet adds later — is spawned and coordinated.
	if spec.Degree > 1 || id >= spec.Degree {
		w.bud.charge(ctx.Costs.WorkerStartup)
	}
	for {
		// One step is the abort and retune quantum: a tripped control stops
		// the worker here, before it claims more work, and the fleet grows or
		// retires here.
		if spec.aborted() {
			return
		}
		if fl.tick() {
			retired = true
			return
		}
		if !fl.step(w) {
			fl.done = true
			return
		}
	}
}

// tick consults the tuner at a quantum boundary. It reports true when the
// calling worker should retire (the target fell below the effective fleet);
// otherwise it spawns workers up to the target. Workers that retire wind
// down through the normal teardown path — endWorker reports to the
// governor, which reclaims the lease's credits proportionally.
func (fl *fleet) tick() bool {
	if fl.spec.Tune == nil {
		return false
	}
	eff := fl.live - fl.leaving
	t := fl.spec.Tune.Tick(eff)
	if t < 1 {
		t = 1
	}
	if t > fl.max {
		t = fl.max
	}
	if t < eff && eff > 1 {
		fl.leaving++
		return true
	}
	if fl.done {
		return false
	}
	for fl.live-fl.leaving < t && fl.next < fl.max {
		fl.spawn()
	}
	return false
}

// result merges the workers' accumulators.
func (fl *fleet) result() Result { return mergeAggs(fl.spec.Agg, fl.aggs) }

// metered runs body to completion as process name on ctx's environment and
// reports the virtual time it took and the device and pool traffic inside
// that window. Pool *contents* are left as the run leaves them (flush
// explicitly between runs to model a cold cache).
func metered(ctx *Context, name string, body func(p *sim.Proc)) (sim.Duration, device.Summary, buffer.Stats) {
	ctx.Dev.Metrics().Reset()
	ctx.Pool.ResetStats()
	start := ctx.Env.Now()
	ctx.Env.Go(name, body)
	ctx.Env.Run()
	return sim.Duration(ctx.Env.Now() - start), ctx.Dev.Metrics().Snapshot(), ctx.Pool.Stats
}
