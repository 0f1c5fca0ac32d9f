package disk

import (
	"testing"

	"pioqo/internal/device"
	"pioqo/internal/sim"
)

func newManager(e *sim.Env) *Manager {
	return NewManager(device.NewSSD(e, device.DefaultSSDConfig()))
}

func TestAllocateAdjacentExtents(t *testing.T) {
	e := sim.NewEnv(1)
	m := newManager(e)
	a := m.MustAllocate("a", 100)
	b := m.MustAllocate("b", 50)
	if a.Offset(0) != 0 {
		t.Errorf("first extent starts at %d, want 0", a.Offset(0))
	}
	if got, want := b.Offset(0), int64(100*PageSize); got != want {
		t.Errorf("second extent starts at %d, want %d", got, want)
	}
	if a.ID() == b.ID() {
		t.Error("extents share an ID")
	}
	if m.Free() != m.Capacity()-150 {
		t.Errorf("free = %d, want %d", m.Free(), m.Capacity()-150)
	}
}

func TestAllocateBeyondCapacityFails(t *testing.T) {
	e := sim.NewEnv(1)
	m := newManager(e)
	if _, err := m.Allocate("big", m.Capacity()+1); err == nil {
		t.Error("no error allocating beyond capacity")
	}
	if _, err := m.Allocate("zero", 0); err == nil {
		t.Error("no error allocating zero pages")
	}
}

func TestReadPageCompletes(t *testing.T) {
	e := sim.NewEnv(1)
	m := newManager(e)
	f := m.MustAllocate("t", 10)
	var done bool
	e.Go("p", func(p *sim.Proc) {
		p.Wait(f.ReadPage(3))
		done = true
	})
	e.Run()
	if !done {
		t.Fatal("read never completed")
	}
	if got := m.Device().Metrics().Bytes; got != PageSize {
		t.Errorf("device moved %d bytes, want %d", got, PageSize)
	}
}

func TestReadRunIsOneDeviceRequest(t *testing.T) {
	e := sim.NewEnv(1)
	m := newManager(e)
	f := m.MustAllocate("t", 64)
	e.Go("p", func(p *sim.Proc) { p.Wait(f.ReadRun(0, 64)) })
	e.Run()
	if got := m.Device().Metrics().Requests; got != 1 {
		t.Errorf("device served %d requests, want 1", got)
	}
	if got := m.Device().Metrics().Bytes; got != 64*PageSize {
		t.Errorf("device moved %d bytes, want %d", got, 64*PageSize)
	}
}

func TestOutOfExtentPanics(t *testing.T) {
	e := sim.NewEnv(1)
	f := newManager(e).MustAllocate("t", 10)
	for _, bad := range []struct {
		page  int64
		count int
	}{{-1, 1}, {10, 1}, {9, 2}, {0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for ReadRun(%d, %d)", bad.page, bad.count)
				}
			}()
			f.ReadRun(bad.page, bad.count)
		}()
	}
}

func TestWriteRunIsOneDeviceRequest(t *testing.T) {
	e := sim.NewEnv(1)
	m := newManager(e)
	f := m.MustAllocate("t", 64)
	e.Go("p", func(p *sim.Proc) { p.Wait(f.WriteRun(0, 64)) })
	e.Run()
	if got := m.Device().Metrics().Requests; got != 1 {
		t.Errorf("device served %d requests, want 1", got)
	}
	if got := m.Device().Metrics().Bytes; got != 64*PageSize {
		t.Errorf("device moved %d bytes, want %d", got, 64*PageSize)
	}
}
