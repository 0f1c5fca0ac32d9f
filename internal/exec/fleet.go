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
// poll at every quantum, and the teardown order. The drivers supply only a
// step — claim one quantum of work and process it. A fleet runs at most
// its spec's Degree workers, all started at once.
type fleet struct {
	ctx  *Context
	spec *Spec
	aggs []agg // one accumulator per slot

	name string // process and track-span prefix of the current run
	step func(w *worker) bool
}

// worker is one slot's state, handed to the step at every quantum.
type worker struct {
	id  int
	p   *sim.Proc
	bud cpuBudget
	a   *agg

	entries  []btree.Entry // scratch reused across leaf batches
	matches  []table.Match // scratch reused across pages
	inFlight *sim.Any      // the prefetches of an index batch's window (reads)
}

// Scratch is a node's free lists: worker records — a worker's CPU budget and
// the leaf-entry and page-match buffers it grows on its first batches — and
// the hash operators' tables, kept for the node's next workers and operators
// instead of being regrown by every fleet and every join or group-by of every
// query. A table goes back emptied but with its buckets, so the list holds at
// most the largest table each concurrently running operator has built. One
// Scratch belongs to one node — every Context built for that node carries it
// — and so to one sim.Env, whose processes the host runs one at a time:
// nothing is locked, and systems swept on different host threads never share
// a record or a table. A nil Scratch (a Context built without one) makes
// every worker and every table afresh.
type Scratch struct {
	free   []*worker
	tables []*hashTable
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

// table takes a hash table off the list, or makes one. The operator that
// takes it owns it until it gives it back with putTable, on every exit path:
// two operators running at once on one node each hold their own.
func (s *Scratch) table() *hashTable {
	if s == nil || len(s.tables) == 0 {
		return &hashTable{m: make(map[int64]int64)}
	}
	t := s.tables[len(s.tables)-1]
	s.tables = s.tables[:len(s.tables)-1]
	return t
}

// putTable empties t and returns it to the list; clear keeps the map's
// buckets and the slices keep their arrays for the next operator.
func (s *Scratch) putTable(t *hashTable) {
	if s == nil {
		return
	}
	clear(t.m)
	t.aggs, t.keys = t.aggs[:0], t.keys[:0]
	s.tables = append(s.tables, t)
}

// newFleet returns a fleet for spec, one slot per degree.
func newFleet(ctx *Context, spec *Spec) *fleet {
	return &fleet{ctx: ctx, spec: spec}
}

// run launches n workers named name+slot, each calling step until it
// reports no work left, and parks p until the fleet has drained.
//
// A lone planned worker runs on p itself: no process, no wait group. p
// yields where the spawn would have queued the worker and again where the
// wait group would have woken it, so every event keeps the place it has in
// a spawned fleet's schedule.
func (fl *fleet) run(p *sim.Proc, name string, n int, step func(w *worker) bool) {
	fl.name, fl.step = name, step
	fl.aggs = make([]agg, fl.spec.Degree)
	for i := range fl.aggs {
		fl.aggs[i].kind = fl.spec.Agg
	}
	if fl.spec.Degree == 1 {
		p.Sleep(0)
		fl.work(p, 0)
		p.Sleep(0)
		return
	}
	wg := sim.NewWaitGroup(fl.ctx.Env)
	wg.Add(n)
	for id := 0; id < n; id++ {
		fl.ctx.Env.Go(fmt.Sprintf("%s%d", name, id), func(wp *sim.Proc) {
			defer wg.Done()
			fl.work(wp, id)
		})
	}
	p.WaitFor(wg)
}

// work is one worker's lifetime. Teardown runs in the reverse of setup:
// settle the CPU debt, close the span, report the exit.
func (fl *fleet) work(wp *sim.Proc, id int) {
	ctx, spec := fl.ctx, fl.spec
	spec.startWorker(ctx, id)
	defer spec.endWorker(ctx, id)
	w := ctx.Scratch.get()
	w.id, w.p, w.a = id, wp, &fl.aggs[id]
	var name string
	if ctx.Tracer != nil { // the track span's name; formatting allocates
		name = fmt.Sprintf("%s%d", fl.name, id)
	}
	w.bud = newBudget(ctx, spec, name)
	defer func() {
		w.bud.finish(w.a.rows)
		ctx.Scratch.put(w)
	}()
	defer w.bud.settle(wp)
	// A lone planned worker is the query's own thread; every other one is
	// spawned and coordinated.
	if spec.Degree > 1 {
		w.bud.charge(ctx.Costs.WorkerStartup)
	}
	// One step is the abort quantum: a tripped control stops the worker
	// here, before it claims more work.
	for !spec.aborted() && fl.step(w) {
	}
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
