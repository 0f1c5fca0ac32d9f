package device

import (
	"testing"

	"pioqo/internal/sim"
)

// TestRequestAllocations is the allocation gate on the request path: once a
// device has served a few requests — its records made, its queues grown —
// a read allocates the completion it returns and nothing else, whether it
// is one page or a run cut into chunks, a readahead hit or a striped read.
func TestRequestAllocations(t *testing.T) {
	const block = 256 << 10
	cases := []struct {
		name   string
		mk     func(*sim.Env) Device
		length int
		stride int64 // between consecutive reads; the offsets cycle inside one 4 MiB mapping span
		limit  float64
	}{
		{"ssd 4 KiB read in a cached map span", newSSD, page, 3 * page, 1},
		{"ssd 256 KiB run", newSSD, block, 2 * block, 1},
		{"ssd 4 KiB readahead hit", newSSD, page, page, 1},
		{"hdd 4 KiB read", newHDD, page, 3 * page, 1},
		{"raid 4 KiB read", newRAID8, page, 3 * page, 2}, // its own completion and the spindle's
		{"raid 256 KiB striped read", newRAID8, block, 2 * block, 5},
	}
	for _, c := range cases {
		env := sim.NewEnv(1)
		dev := c.mk(env)
		env.Go("gate", func(p *sim.Proc) {
			next := int64(0)
			read := func() {
				p.Wait(dev.ReadAt(next, c.length))
				next = (next + c.stride) % (4 << 20)
			}
			for i := 0; i < 64; i++ {
				read()
			}
			if got := testing.AllocsPerRun(100, read); got > c.limit {
				t.Errorf("%s: %v allocations per ReadAt + Wait, want at most %v", c.name, got, c.limit)
			}
		})
		env.Run()
	}
}
