package sim

import "fmt"

// Resource is a counted resource with FIFO admission, used to model CPU
// cores: a worker acquires a core to burn compute time and releases it while
// blocked on I/O. Capacity is fixed at construction.
type Resource struct {
	env      *Env
	name     string
	capacity int
	inUse    int

	// Waiters form a FIFO ring: wait holds them (len a power of two), head
	// indexes the longest-waiting one, queued counts them. Steady contention
	// reuses the ring's storage, so a contended Acquire allocates nothing.
	wait   []*Proc
	head   int
	queued int

	// busyTime integrates (units in use) × (time), for utilisation reports.
	busyTime     Duration
	lastChange   Time
	acquisitions int64
}

// NewResource returns a resource with the given capacity (> 0).
func NewResource(e *Env, name string, capacity int) *Resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: resource %q with capacity %d", name, capacity))
	}
	return &Resource{env: e, name: name, capacity: capacity}
}

// Capacity returns the total number of units.
func (r *Resource) Capacity() int { return r.capacity }

// InUse returns the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of processes waiting for a unit.
func (r *Resource) QueueLen() int { return r.queued }

func (r *Resource) account() {
	now := r.env.now
	r.busyTime += Duration(now-r.lastChange) * Duration(r.inUse)
	r.lastChange = now
}

// Utilization reports the time-averaged fraction of capacity in use since
// the start of the simulation.
func (r *Resource) Utilization() float64 {
	if r.env.now == 0 {
		return 0
	}
	r.account()
	return float64(r.busyTime) / (float64(r.env.now) * float64(r.capacity))
}

// Acquire blocks the process until a unit of r is available and takes it.
// Units are granted in FIFO order.
func (p *Proc) Acquire(r *Resource) {
	if r.inUse < r.capacity && r.queued == 0 {
		r.account()
		r.inUse++
		r.acquisitions++
		return
	}
	if r.queued == len(r.wait) {
		grown := make([]*Proc, max(4, 2*len(r.wait)))
		n := copy(grown, r.wait[r.head:])
		copy(grown[n:], r.wait[:r.head])
		r.wait, r.head = grown, 0
	}
	r.wait[(r.head+r.queued)&(len(r.wait)-1)] = p
	r.queued++
	p.granted = false
	p.park(parkResource, 0, r.name)
	if !p.granted {
		panic("sim: resumed without grant from resource " + r.name)
	}
}

// Release returns one unit of r, waking the longest-waiting process if any.
// It may be called from any simulation context. Releasing more units than
// were acquired panics.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: release of idle resource " + r.name)
	}
	if r.queued > 0 {
		// Hand the unit directly to the next waiter: inUse is unchanged.
		p := r.wait[r.head]
		r.wait[r.head] = nil
		r.head = (r.head + 1) & (len(r.wait) - 1)
		r.queued--
		p.granted = true
		r.acquisitions++
		r.env.wake(p, 0)
		return
	}
	r.account()
	r.inUse--
}

// Use acquires a unit, holds it for d of virtual time, and releases it.
// This is the common "burn CPU for d" idiom.
func (p *Proc) Use(r *Resource, d Duration) {
	p.Acquire(r)
	p.Sleep(d)
	r.Release()
}
