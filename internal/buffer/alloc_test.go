package buffer

import (
	"testing"

	"pioqo/internal/device"
	"pioqo/internal/disk"
	"pioqo/internal/sim"
)

// flatDevice completes every request after a fixed latency at a fixed
// allocation cost, whatever its length. The SSD model allocates per stripe,
// so on it a block read's allocations grow with the run; on this device
// anything that grows with the run is the pool's.
type flatDevice struct{ env *sim.Env }

func (d flatDevice) ReadAt(int64, int) *sim.Completion {
	c := sim.NewCompletion(d.env)
	d.env.Schedule(100*sim.Microsecond, c.Fire)
	return c
}
func (d flatDevice) WriteAt(offset int64, length int) *sim.Completion {
	return d.ReadAt(offset, length)
}
func (d flatDevice) Size() int64              { return 1 << 40 }
func (d flatDevice) Name() string             { return "flat" }
func (d flatDevice) Metrics() *device.Metrics { return nil }

// TestPoolAllocations is the allocation gate on the page path. A resident
// page costs nothing. A device read costs what the device and the kernel
// allocate for it plus, from this package, one completion callback — however
// many pages the read installs, and with the pool full and evicting.
func TestPoolAllocations(t *testing.T) {
	const capacity = 128
	env := sim.NewEnv(1)
	file := disk.NewManager(flatDevice{env}).MustAllocate("t", 1<<20)
	pool := NewPool(env, capacity)

	// The callback is one allocation, its closure: the completion keeps a
	// first callback in itself, and the index and the arena are arrays.
	const perRead = 1

	env.Go("gate", func(p *sim.Proc) {
		next := int64(0) // sweeps forward: every page it names is absent
		for ; next < capacity; next++ {
			pool.FetchPage(p, file, next).Release()
		}
		measure := func(name string, limit float64, body func()) float64 {
			got := testing.AllocsPerRun(50, body)
			if got > limit {
				t.Errorf("%s: %v allocations, want at most %v", name, got, limit)
			}
			return got
		}

		hot := next - 1
		measure("resident FetchPage + Release", 0, func() { pool.FetchPage(p, file, hot).Release() })
		measure("Contains + Loaded", 0, func() {
			if !pool.Contains(file, hot) || !pool.Loaded(file, hot) || pool.Contains(file, next) {
				t.Error("residency probes disagree with the pool's contents")
			}
		})

		bareRead := measure("bare device read", 100, func() { p.Wait(file.ReadPage(next)) })
		measure("cold FetchPage + Release", bareRead+perRead, func() {
			pool.FetchPage(p, file, next).Release()
			next++
		})

		bareRun := measure("bare block read", 100, func() {
			file.ReadRun(next, 64)
			p.Sleep(sim.Millisecond)
		})
		for _, run := range []int{8, 64} {
			evicted := pool.Stats.Evictions
			measure("PrefetchRun", bareRun+perRead, func() {
				if !pool.PrefetchRun(file, next, run) {
					t.Error("PrefetchRun of absent pages issued nothing")
				}
				next += int64(run)
				p.Sleep(sim.Millisecond)
			})
			if pool.Stats.Evictions == evicted {
				t.Error("PrefetchRun gate ran without evicting: the pool was not full")
			}
		}
	})
	env.Run()
}

// BenchmarkPrefetchRunTrimmed issues a 64-page trimmed run around eight
// pages another read is already bringing in — two gaps, two block reads —
// and sleeps until they land: the overlap-trimming path without the fetches,
// into a full pool. bench/ times a hit, a miss and a prefetched page
// (buffer.hit_ns, miss_ns, prefetch_page_ns), not the trimming.
func BenchmarkPrefetchRunTrimmed(b *testing.B) {
	const frames, run = 256, 64
	w := newWorld(b, frames)
	b.ReportAllocs()
	w.run(func(p *sim.Proc) {
		for pg := int64(0); pg < frames; pg++ {
			w.pool.FetchPage(p, w.file, pg).Release()
		}
		b.ResetTimer()
		for i := int64(0); i < int64(b.N); i++ {
			base := (frames + i*run) % 4096
			w.pool.PrefetchRun(w.file, base+24, 8)
			if w.pool.PrefetchRunTrimmed(w.file, base, run) != 2 {
				b.Fatal("trimmed run did not split into two gaps")
			}
			p.Sleep(sim.Millisecond)
		}
	})
}
