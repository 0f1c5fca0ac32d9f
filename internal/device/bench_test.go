package device

import (
	"testing"

	"pioqo/internal/sim"
)

// BenchmarkSSDSequentialBlocks measures the chunked large-read path: bench/'s
// device.*_req_ns probes time 4 KiB random reads only.
func BenchmarkSSDSequentialBlocks(b *testing.B) {
	env := sim.NewEnv(1)
	dev := newSSD(env)
	const block = 256 << 10
	blocks := dev.Size() / block
	env.Go("seq", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Wait(dev.ReadAt(int64(i)%blocks*block, block))
		}
	})
	b.ResetTimer()
	env.Run()
}
