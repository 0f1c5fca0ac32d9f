package buffer

import (
	"errors"
	"testing"

	"pioqo/internal/device"
	"pioqo/internal/disk"
	"pioqo/internal/fault"
	"pioqo/internal/sim"
)

// faultWorld is the standard fixture with a fault injector between the pool
// and the device.
type faultWorld struct {
	*world
	inj *fault.Injector
}

func newFaultWorld(t *testing.T, poolPages int) *faultWorld {
	t.Helper()
	env := sim.NewEnv(1)
	inj := fault.Wrap(env, nil, device.NewSSD(env, device.DefaultSSDConfig()))
	m := disk.NewManager(inj)
	return &faultWorld{
		world: &world{
			env:  env,
			file: m.MustAllocate("t", 4096),
			pool: NewPool(env, poolPages),
		},
		inj: inj,
	}
}

func TestFetchPageEFailedReadUninstallsFrame(t *testing.T) {
	w := newFaultWorld(t, 8)
	w.inj.Arm(fault.Schedule{Windows: []fault.Window{{ErrorRate: 1}}})
	epoch0 := w.pool.Epoch()
	var fetchErr error
	w.run(func(p *sim.Proc) {
		_, fetchErr = w.pool.FetchPageE(p, w.file, 3)
	})
	if !errors.Is(fetchErr, fault.ErrDeviceFault) {
		t.Fatalf("FetchPageE err = %v, want ErrDeviceFault", fetchErr)
	}
	if n := w.pool.Resident(w.file); n != 0 {
		t.Errorf("failed read left %d resident pages", n)
	}
	if n := w.pool.Pinned(); n != 0 {
		t.Errorf("failed read left %d pins", n)
	}
	if w.pool.Stats.ReadErrors != 1 {
		t.Errorf("Stats.ReadErrors = %d, want 1", w.pool.Stats.ReadErrors)
	}
	if w.pool.Epoch() == epoch0 {
		t.Error("failed read did not bump the residency epoch")
	}

	// Device healthy again: the same page must fetch cleanly — the failed
	// install left no poisoned frame behind.
	w.inj.Disarm()
	w.run(func(p *sim.Proc) {
		h, err := w.pool.FetchPageE(p, w.file, 3)
		if err != nil {
			t.Errorf("refetch after recovery failed: %v", err)
			return
		}
		h.Release()
	})
	if n := w.pool.Resident(w.file); n != 1 {
		t.Errorf("recovered fetch left %d resident pages, want 1", n)
	}
}

func TestFailedReadPropagatesToJoiners(t *testing.T) {
	w := newFaultWorld(t, 8)
	w.inj.Arm(fault.Schedule{Windows: []fault.Window{{ErrorRate: 1}}})
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		i := i
		w.env.Go("fetcher", func(p *sim.Proc) {
			_, errs[i] = w.pool.FetchPageE(p, w.file, 7)
		})
	}
	w.env.Run()
	for i, err := range errs {
		if !errors.Is(err, fault.ErrDeviceFault) {
			t.Errorf("fetcher %d: err = %v, want ErrDeviceFault", i, err)
		}
	}
	if n := w.pool.Pinned(); n != 0 {
		t.Errorf("joiners left %d pins after failure", n)
	}
	// Exactly one device-level failure: the second fetch joined the first's
	// in-flight load instead of issuing its own.
	if got := w.inj.Stats().Errors; got != 1 {
		t.Errorf("injector failed %d reads, want 1 (joiner must share the load)", got)
	}
}

func TestFetchPagePanicsOnFault(t *testing.T) {
	// Legacy FetchPage has no error path; a device fault reaching it is a
	// bug in the caller's wiring and must be loud.
	w := newFaultWorld(t, 8)
	w.inj.Arm(fault.Schedule{Windows: []fault.Window{{ErrorRate: 1}}})
	panicked := false
	w.run(func(p *sim.Proc) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		w.pool.FetchPage(p, w.file, 0)
	})
	if !panicked {
		t.Fatal("FetchPage did not panic on an unhandled device fault")
	}
}

// A failed block read with fetchers joined on its pages frees every slot it
// took — before any of them resumes — and leaves nothing pinned: the pool
// can afterwards fill to capacity and turn over completely, with each slot
// handed out exactly once.
func TestFailedRunReadReturnsEverySlot(t *testing.T) {
	const capacity, run = 8, 6
	w := newFaultWorld(t, capacity)
	w.inj.Arm(fault.Schedule{Windows: []fault.Window{{ErrorRate: 1}}})
	w.pool.PrefetchRun(w.file, 10, run)
	errs := make([]error, 3)
	for i := range errs {
		w.env.Go("joiner", func(p *sim.Proc) {
			_, errs[i] = w.pool.FetchPageE(p, w.file, 10+int64(2*i))
			// The callback that failed the read ran first: nothing of the
			// run is left for a resumed waiter to see.
			if n := w.pool.Cached(); n != 0 {
				t.Errorf("joiner %d resumed with %d frames still installed", i, n)
			}
		})
	}
	w.env.Run()
	for i, err := range errs {
		if !errors.Is(err, fault.ErrDeviceFault) {
			t.Errorf("joiner %d: err = %v, want ErrDeviceFault", i, err)
		}
	}
	if got := w.pool.Stats.ReadErrors; got != run {
		t.Errorf("Stats.ReadErrors = %d, want one per page of the run (%d)", got, run)
	}
	if w.pool.Pinned() != 0 || w.pool.Cached() != 0 {
		t.Errorf("failed run left %d pins and %d frames", w.pool.Pinned(), w.pool.Cached())
	}
	if err := arenaError(w.pool); err != nil {
		t.Fatal(err)
	}

	w.inj.Disarm()
	w.run(func(p *sim.Proc) {
		var held []Handle
		for page := int64(0); page < capacity; page++ {
			held = append(held, w.pool.FetchPage(p, w.file, page))
		}
		if err := arenaError(w.pool); err != nil {
			t.Error(err)
		}
		for _, h := range held {
			h.Release()
		}
		for page := int64(100); page < 100+capacity; page++ {
			w.pool.FetchPage(p, w.file, page).Release()
		}
	})
	if w.pool.Cached() != capacity || w.pool.Pinned() != 0 {
		t.Errorf("after %d more installs: %d frames, %d pins", 2*capacity, w.pool.Cached(), w.pool.Pinned())
	}
	if err := arenaError(w.pool); err != nil {
		t.Fatal(err)
	}
}
