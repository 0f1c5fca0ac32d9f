package sim

import (
	"fmt"
	"testing"
)

// BenchmarkHandoffRing is the hand-off figure: eight processes sleeping in
// strict rotation, so every wake belongs to a process other than the one
// that just parked and every op is one baton pass — a yield to the
// trampoline and a resume. bench/'s sim.proc_switch_ns is the self-wake
// path, which never switches; no probe times this one.
func BenchmarkHandoffRing(b *testing.B) {
	e := NewEnv(1)
	const procs = 8
	each := b.N/procs + 1
	for w := 0; w < procs; w++ {
		e.Go(fmt.Sprintf("p%d", w), func(p *Proc) {
			p.Sleep(Duration(w) * Nanosecond)
			for i := 0; i < each; i++ {
				p.Sleep(procs * Nanosecond)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}
