package exec

import (
	"errors"
	"testing"

	"pioqo/internal/btree"
	"pioqo/internal/buffer"
	"pioqo/internal/device"
	"pioqo/internal/disk"
	"pioqo/internal/fault"
	"pioqo/internal/obs"
	"pioqo/internal/sim"
	"pioqo/internal/table"
)

// newFaultWorld is newWorld with a fault injector between the executor and
// the device.
func newFaultWorld(t *testing.T, o worldOpts) (*world, *fault.Injector) {
	t.Helper()
	if o.cores == 0 {
		o.cores = 8
	}
	if o.poolPages == 0 {
		o.poolPages = 4096
	}
	env := sim.NewEnv(404)
	inj := fault.Wrap(env, nil, device.NewSSD(env, device.DefaultSSDConfig()))
	m := disk.NewManager(inj)
	tab := table.NewMaterialized(m, "t", o.rows, o.rpp, 7)
	idx := btree.NewMaterialized(m, tab, 0, 0)
	return &world{
		env: env,
		tab: tab,
		idx: idx,
		ctx: &Context{
			Env:   env,
			CPU:   sim.NewResource(env, "cpu", o.cores),
			Pool:  buffer.NewPool(env, o.poolPages),
			Dev:   inj,
			Costs: DefaultCPUCosts(),
		},
	}, inj
}

// assertClean checks the post-abort invariants: no leaked sim processes, no
// pinned pages.
func assertClean(t *testing.T, w *world) {
	t.Helper()
	if n := w.env.LiveProcs(); n != 0 {
		t.Errorf("%d sim processes still live after the query", n)
	}
	if n := w.ctx.Pool.Pinned(); n != 0 {
		t.Errorf("%d pages still pinned after the query", n)
	}
}

// faultArm is one scan shape the fault tests run: a method and the per-worker
// prefetch depth its workers keep in flight.
type faultArm struct {
	name     string
	m        Method
	prefetch int
}

// faultArms are the full scan, the index scan, and the index scan whose
// prefetched reads can fail: a failed prefetch leaves no frame behind, and
// the worker's fetch of that page reads it again on demand.
var faultArms = []faultArm{{"FTS", FullScan, 0}, {"IS", IndexScan, 0}, {"IS-pf8", IndexScan, 8}}

// spec is the arm's scan of [lo, hi] at degree under ctl.
func (a faultArm) spec(w *world, degree int, lo, hi int64, ctl *fault.Control) Spec {
	s := w.specWithCtl(a.m, degree, lo, hi, ctl)
	s.PrefetchPerWorker = a.prefetch
	return s
}

func TestRetryRecoversTransientFaults(t *testing.T) {
	// FTS reads the heap in multi-page runs, so it issues far fewer device
	// reads than the index scans over the same range; it needs a higher
	// per-read rate for the seeded draws to produce any faults at all.
	rates := map[Method]float64{FullScan: 0.2, IndexScan: 0.05}
	for _, a := range faultArms {
		t.Run(a.name, func(t *testing.T) {
			o := worldOpts{rows: 20000, rpp: 33}
			w, _ := newFaultWorld(t, o)
			healthy := Execute(w.ctx, a.spec(w, 4, 100, 2000, nil))
			if healthy.Err != nil {
				t.Fatalf("healthy run failed: %v", healthy.Err)
			}

			w2, inj := newFaultWorld(t, o)
			w2.ctx.Obs = obs.NewRegistry(w2.env)
			w2.ctx.Obs.EnableEvents(0)
			inj.Arm(fault.Schedule{Windows: []fault.Window{{ErrorRate: rates[a.m]}}})
			ctl := fault.NewControl(w2.env)
			res := Execute(w2.ctx, a.spec(w2, 4, 100, 2000, ctl))
			if res.Err != nil {
				t.Fatalf("faulted run failed despite retries: %v", res.Err)
			}
			if st := inj.Stats(); st.Errors == 0 {
				t.Fatal("injector produced no faults; the test exercised nothing")
			}
			// A worker retries every failed read it waited on; a failed
			// prefetch no worker joined is read again on demand instead.
			retries := 0
			for _, e := range w2.ctx.Obs.Log().Events() {
				if e.Type == obs.EvReadRetry {
					retries++
				}
			}
			if a.prefetch > 0 && res.Pool.ReadErrors <= int64(retries) {
				t.Fatalf("%d failed reads, %d worker retries: no prefetch failed unjoined", res.Pool.ReadErrors, retries)
			}
			if res.Value != healthy.Value || res.Found != healthy.Found || res.RowsMatched != healthy.RowsMatched {
				t.Errorf("faulted answer (%d,%v,%d) != healthy answer (%d,%v,%d)",
					res.Value, res.Found, res.RowsMatched,
					healthy.Value, healthy.Found, healthy.RowsMatched)
			}
			assertClean(t, w2)
		})
	}
}

func TestExhaustedRetriesAbortCleanly(t *testing.T) {
	for _, a := range faultArms {
		t.Run(a.name, func(t *testing.T) {
			w, inj := newFaultWorld(t, worldOpts{rows: 20000, rpp: 33})
			inj.Arm(fault.Schedule{Windows: []fault.Window{{ErrorRate: 1}}})
			ctl := fault.NewControl(w.env)
			res := Execute(w.ctx, a.spec(w, 4, 100, 2000, ctl))
			if !errors.Is(res.Err, fault.ErrDeviceFault) {
				t.Fatalf("Result.Err = %v, want ErrDeviceFault", res.Err)
			}
			assertClean(t, w)
		})
	}
}

func TestDeadlineAbortsMidScan(t *testing.T) {
	for _, a := range faultArms {
		t.Run(a.name, func(t *testing.T) {
			w, _ := newFaultWorld(t, worldOpts{rows: 200000, rpp: 33, poolPages: 512})
			ctl := fault.NewControl(w.env)
			// Far too short for a 6000-page scan, long enough to start it.
			ctl.SetDeadline(w.env.Now().Add(500 * sim.Microsecond))
			res := Execute(w.ctx, a.spec(w, 8, 0, 150000, ctl))
			if !errors.Is(res.Err, fault.ErrDeadlineExceeded) {
				t.Fatalf("Result.Err = %v, want ErrDeadlineExceeded", res.Err)
			}
			assertClean(t, w)
		})
	}
}

func TestCancelMidScanReleasesEverything(t *testing.T) {
	w, _ := newFaultWorld(t, worldOpts{rows: 200000, rpp: 33, poolPages: 512})
	ctl := fault.NewControl(w.env)
	// Cancel lands mid-scan via a scheduled event, like a host-side abort
	// arriving while workers are running.
	w.env.Schedule(sim.Millisecond, func() { ctl.Cancel(fault.ErrCanceled) })
	epoch0 := w.ctx.Pool.Epoch()
	_ = epoch0
	res := Execute(w.ctx, w.specWithCtl(IndexScan, 8, 0, 150000, ctl))
	if !errors.Is(res.Err, fault.ErrCanceled) {
		t.Fatalf("Result.Err = %v, want ErrCanceled", res.Err)
	}
	assertClean(t, w)

	// The pool must still be coherent: a fresh query over the same range
	// succeeds and matches the brute-force answer.
	wantMax, wantFound, wantRows := w.bruteForce(0, 150000)
	res2 := Execute(w.ctx, w.specWithCtl(IndexScan, 8, 0, 150000, fault.NewControl(w.env)))
	if res2.Err != nil {
		t.Fatalf("rerun after cancel failed: %v", res2.Err)
	}
	if res2.Value != wantMax || res2.Found != wantFound || res2.RowsMatched != wantRows {
		t.Errorf("rerun answer (%d,%v,%d) != brute force (%d,%v,%d)",
			res2.Value, res2.Found, res2.RowsMatched, wantMax, wantFound, wantRows)
	}
	assertClean(t, w)
}

func (w *world) specWithCtl(m Method, degree int, lo, hi int64, ctl *fault.Control) Spec {
	s := w.spec(m, degree, lo, hi)
	s.Ctl = ctl
	return s
}
